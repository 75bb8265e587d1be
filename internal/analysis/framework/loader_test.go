package framework

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree writes files (slash-separated paths relative to the root) under
// a fresh temporary directory and returns it.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// An import that resolves nowhere stays a type error of the importing
// package, while its other imports still come from export data.
func TestLoadUnresolvableImportIsTypeError(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a/a.go": `package a

import (
	_ "nosuch/pkg"
	"sync"
)

var Mu sync.Mutex
`,
	})
	pkgs, err := Load(Config{RootDir: root}, "a")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if len(pkg.TypeErrors) != 1 || !strings.Contains(pkg.TypeErrors[0].Error(), "nosuch/pkg") {
		t.Fatalf("type errors %v, want exactly one naming nosuch/pkg", pkg.TypeErrors)
	}
	mu := pkg.Types.Scope().Lookup("Mu")
	if mu == nil {
		t.Fatal("a.Mu not declared")
	}
	if got := mu.Type().String(); got != "sync.Mutex" {
		t.Errorf("a.Mu has type %s, want sync.Mutex", got)
	}
	if _, ok := mu.Type().Underlying().(*types.Struct); !ok {
		t.Errorf("sync.Mutex did not resolve to a struct: %v", mu.Type().Underlying())
	}
}

// When the go command itself fails, Load returns its error with go list's
// standard error attached.
func TestLoadReportsGoListFailure(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example\n\nthis is not a go.mod directive\n",
		"a/a.go": "package a\n\nimport \"sync\"\n\nvar Mu sync.Mutex\n",
	})
	_, err := Load(Config{RootDir: root, ModulePath: "example"}, "example/a")
	if err == nil {
		t.Fatal("Load succeeded on a module with a broken go.mod")
	}
	if msg := err.Error(); !strings.Contains(msg, "go list") || !strings.Contains(msg, "go.mod") {
		t.Errorf("error %q does not carry go list's stderr", msg)
	}
}
