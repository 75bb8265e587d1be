package passes

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"deltartos/internal/analysis/framework"
	"deltartos/internal/app"
)

// appLoad is the real internal/app package, loaded once per test binary and
// shared read-only by every cross-check test.
var appLoad struct {
	once sync.Once
	pkgs []*framework.Package
	err  error
}

// loadApp returns the loaded internal/app package, failing the test unless
// it loaded as exactly one package without type errors.
func loadApp(t *testing.T) *framework.Package {
	t.Helper()
	appLoad.once.Do(func() {
		appLoad.pkgs, appLoad.err = framework.LoadModule(".", "deltartos/internal/app")
	})
	if appLoad.err != nil {
		t.Fatalf("load internal/app: %v", appLoad.err)
	}
	if len(appLoad.pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(appLoad.pkgs))
	}
	for _, terr := range appLoad.pkgs[0].TypeErrors {
		t.Fatalf("internal/app: type error: %v", terr)
	}
	return appLoad.pkgs[0]
}

// loadAppCycles runs the lockorder pass over the real internal/app sources
// and returns its cycle report grouped by scenario function.
func loadAppCycles(t *testing.T) map[string][]LockCycle {
	t.Helper()
	_, res, err := framework.RunAnalyzer(loadApp(t), LockOrder())
	if err != nil {
		t.Fatal(err)
	}
	byScope := map[string][]LockCycle{}
	for _, c := range res.(*LockOrderResult).Cycles {
		byScope[c.Scope] = append(byScope[c.Scope], c)
	}
	return byScope
}

// resourceSet extracts the resource ids ("res:N" nodes) appearing in any of
// the cycles.
func resourceSet(cycles []LockCycle) map[int]bool {
	out := map[int]bool{}
	for _, c := range cycles {
		for _, n := range c.Nodes {
			if rest, ok := strings.CutPrefix(n, "res:"); ok {
				if id, err := strconv.Atoi(rest); err == nil {
					out[id] = true
				}
			}
		}
	}
	return out
}

// The static lock-order cycle report must be a SUPERSET of what the runtime
// detection actually observes: every resource the DDU/PDDA reduction finds
// in the irreducible deadlock core must sit on some statically-predicted
// cycle of the same scenario.  (The converse need not hold — static
// analysis over-approximates, e.g. priorities can steer a run past a
// predicted cycle.)
func TestStaticCyclesCoverRuntimeDeadlock(t *testing.T) {
	byScope := loadAppCycles(t)
	static := resourceSet(byScope["RunDetectionScenario"])
	if len(static) == 0 {
		t.Fatal("lockorder found no cycles in RunDetectionScenario — the scenario deadlocks at runtime, so the static report lost them")
	}

	run := app.RunDetectionScenario(func() app.Detector { return &app.SoftwareDetector{} })
	if !run.DeadlockFound {
		t.Fatal("runtime detection scenario found no deadlock")
	}
	if len(run.DeadlockedResources) == 0 {
		t.Fatal("runtime detection latched no deadlocked resources")
	}
	for _, s := range run.DeadlockedResources {
		if !static[s] {
			t.Errorf("resource %d is deadlocked at runtime but on no static lockorder cycle (static set %v)", s, static)
		}
	}
	// All cycles in the scenario carry the deadlock-expected annotation.
	for _, c := range byScope["RunDetectionScenario"] {
		if !c.Expected {
			t.Errorf("cycle %s not marked deadlock-expected", c.Path)
		}
	}
}

// The avoidance scenarios are built around lock-order conflicts the runtime
// avoider then defuses: statically the cycles must be there (that is what
// the experiment exercises), while the runtime run completes deadlock-free —
// the strict-superset side of the relation.
func TestStaticCyclesPresentForAvoidanceScenarios(t *testing.T) {
	byScope := loadAppCycles(t)

	grant := byScope["RunGrantDeadlockScenario"]
	if len(grant) == 0 {
		t.Error("no static cycles in RunGrantDeadlockScenario")
	}
	request := byScope["RunRequestDeadlockScenario"]
	foundChain := false
	for _, c := range request {
		if strings.Join(c.Nodes, ",") == "res:0,res:1,res:2" {
			foundChain = true
		}
	}
	if !foundChain {
		t.Errorf("RunRequestDeadlockScenario static cycles %v miss the VI->IDCT->DSP request chain", request)
	}

	mk := func() app.AvoidanceBackend {
		b, err := app.NewSoftwareAvoidance(5, 5)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if res := app.RunRequestDeadlockScenario(mk); !res.Completed || !res.RDlAvoided {
		t.Errorf("runtime avoider did not defuse the statically-predicted cycle: completed=%v avoided=%v",
			res.Completed, res.RDlAvoided)
	}
}

// Scenarios engineered to be deadlock-free (the robot arm control loop, the
// chaos soak world) must show a clean static report: any cycle there would
// be a real ordering bug.
func TestNoStaticCyclesInDeadlockFreeScenarios(t *testing.T) {
	byScope := loadAppCycles(t)
	expected := map[string]bool{
		"RunDetectionScenario":       true,
		"RunGrantDeadlockScenario":   true,
		"RunRequestDeadlockScenario": true,
	}
	for scope, cycles := range byScope {
		if len(cycles) > 0 && !expected[scope] {
			t.Errorf("unexpected static lock-order cycle in %s: %s", scope, cycles[0].Path)
		}
	}
}
