package main

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"deltartos/internal/analysis/framework"
	"deltartos/internal/analysis/passes"
)

// frozenTree is the module's non-test Go sources and go.mod at commit
// 4b21e5c (`git archive 4b21e5c go.mod <non-test .go files>`), so the lint
// input stays the same whatever later commits do to the tree.
//
//go:embed testdata/frozen-4b21e5c.tar.gz
var frozenTree []byte

// The frozen tree's expected lint output: its package count and the digest
// of its sorted findings (it lints clean, so this is the digest of an empty
// list).
const (
	frozenPackages       = 37
	frozenFindingsDigest = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)

// lintModule loads ./... of the frozen tree afresh every job, as
// `deltalint ./...` does, and runs all ten passes over every package in
// passes.All() order (the passes share a summary cache, so the order is
// part of what is measured).
type lintModule struct {
	dir string // where set-up extracts the frozen tree

	problems []string
	pkgs     int
	findings int
}

func newLintModule(out string) *workload {
	l := &lintModule{dir: filepath.Join(out, "frozen")}
	return &workload{
		setup:  l.setup,
		job:    l.job,
		check:  func() []string { return l.problems },
		layers: l.layers,
	}
}

// setup extracts the frozen tree afresh and loads one small package of it,
// which type-checks that package's standard-library imports from source.
func (l *lintModule) setup() error {
	if err := extractTree(frozenTree, l.dir); err != nil {
		return err
	}
	pkgs, err := framework.LoadModule(l.dir, "./internal/campaign")
	if err != nil {
		return err
	}
	if len(pkgs) != 1 || len(pkgs[0].TypeErrors) > 0 {
		return fmt.Errorf("frozen tree: internal/campaign does not load cleanly")
	}
	return nil
}

func (l *lintModule) job(i int, tr *tracer) (jobResult, error) {
	b := tr.buf()
	key := int64(i)
	s := b.start("framework.load", 0, key)
	pkgs, err := framework.LoadModule(l.dir, "./...")
	b.stop(s)
	if err != nil {
		return jobResult{ops: 1, failed: 1}, err
	}
	r := jobResult{ops: len(pkgs)}
	analyzers := passes.All()
	var findings []string
	for pi, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			r.failed++
			l.problems = append(l.problems, fmt.Sprintf("%s: %v", pkg.PkgPath, pkg.TypeErrors[0]))
			continue
		}
		ps := b.start("lint.package", 0, int64(pi))
		for _, a := range analyzers {
			s := b.start("passes."+a.Name, ps, int64(pi))
			diags, _, err := framework.RunAnalyzer(pkg, a)
			b.stop(s)
			if err != nil {
				r.failed++
				l.problems = append(l.problems, err.Error())
				continue
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				rel, _ := filepath.Rel(l.dir, pos.Filename) // the loader only reports files under dir
				findings = append(findings, fmt.Sprintf("%s:%d:%d: %s: %s", rel, pos.Line, pos.Column, d.Analyzer, d.Message))
			}
		}
		b.stop(ps)
	}
	l.problems = append(l.problems, checkLint(len(pkgs), findings)...)
	l.pkgs, l.findings = len(pkgs), len(findings)
	return r, nil
}

// checkLint compares one lint of the frozen tree with its pinned output.
func checkLint(pkgs int, findings []string) []string {
	var problems []string
	if pkgs != frozenPackages {
		problems = append(problems, fmt.Sprintf("loaded %d packages, want %d", pkgs, frozenPackages))
	}
	if d := findingsDigest(findings); d != frozenFindingsDigest {
		problems = append(problems, fmt.Sprintf("findings digest %s, want %s (%d findings)", d, frozenFindingsDigest, len(findings)))
	}
	return problems
}

// findingsDigest is the SHA-256 of the findings sorted and joined one per
// line.
func findingsDigest(findings []string) string {
	s := append([]string(nil), findings...)
	sort.Strings(s)
	var buf bytes.Buffer
	for _, f := range s {
		buf.WriteString(f)
		buf.WriteByte('\n')
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func (l *lintModule) layers(tr *tracer, _, _ loopStats, m metrics) {
	lt := tr.layers()
	m.set("framework.load_s", lt.self["framework.load"])
	m.set("framework.load_pkgs", float64(l.pkgs))
	for _, a := range passes.All() {
		m.set("passes."+a.Name+"_s", lt.self["passes."+a.Name])
	}
	m.set("lint.findings", float64(l.findings))
}

// extractTree unpacks a gzipped tar of regular files into a fresh dir.
func extractTree(tgz []byte, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	zr, err := gzip.NewReader(bytes.NewReader(tgz))
	if err != nil {
		return fmt.Errorf("frozen tree: %w", err)
	}
	tr := tar.NewReader(zr)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("frozen tree: %w", err)
		}
		if h.Typeflag != tar.TypeReg {
			continue
		}
		name := filepath.FromSlash(h.Name)
		if !filepath.IsLocal(name) {
			return fmt.Errorf("frozen tree: bad entry %q", h.Name)
		}
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			return fmt.Errorf("frozen tree: %w", err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}
}
