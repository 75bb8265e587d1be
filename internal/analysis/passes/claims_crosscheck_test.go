package passes

import (
	"testing"

	"deltartos/internal/analysis/framework"
	"deltartos/internal/app"
	"deltartos/internal/claims"
)

// loadAppManifest runs the claims pass over the real internal/app sources and
// returns the inferred manifest.  The tree is expected to be claims-clean:
// every statically declared claim set must already cover the requests the
// pass can see.
func loadAppManifest(t *testing.T) *claims.Manifest {
	t.Helper()
	diags, res, err := framework.RunAnalyzer(loadApp(t), Claims())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected claims diagnostic: %v: %s", d.Pos, d.Message)
	}
	m, ok := res.(*claims.Manifest)
	if !ok || m == nil {
		t.Fatalf("claims pass returned %T, want *claims.Manifest", res)
	}
	return m
}

// checkSubset asserts that every runtime-observed (task, resource) hold is
// covered by the scenario's static claims, failing with a named witness.
func checkSubset(t *testing.T, m *claims.Manifest, scenario string, observed []claims.TaskClaim) {
	t.Helper()
	sc := m.Scenario(scenario)
	if sc == nil {
		t.Fatalf("static claims manifest has no scenario %q (have %d scenarios)", scenario, len(m.Scenarios))
	}
	if len(observed) == 0 {
		t.Fatalf("%s: runtime audit observed no holds — the audit hooks are disconnected", scenario)
	}
	for _, tc := range observed {
		for _, r := range tc.Resources {
			if !sc.Covers(tc.Task, r) {
				t.Errorf("%s: task %s held %s at runtime, but no static claim covers it", scenario, tc.Task, r)
			}
		}
	}
}

// The static claims manifest must over-approximate the runtime: on every
// scenario, the audited per-task held-sets are a subset of the inferred
// maximal claims.  A violation names the task and resource that escaped the
// static analysis — exactly the hole that would let the DAU/Banker admit an
// undeclared request.
func TestRuntimeHeldSetsWithinStaticClaims(t *testing.T) {
	m := loadAppManifest(t)

	t.Run("detection", func(t *testing.T) {
		run := app.RunDetectionScenario(func() app.Detector { return &app.SoftwareDetector{} })
		checkSubset(t, m, "RunDetectionScenario", run.Observed)
	})
	mkAvoid := func() app.AvoidanceBackend {
		b, err := app.NewSoftwareAvoidance(5, 5)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	t.Run("grant-avoidance", func(t *testing.T) {
		run := app.RunGrantDeadlockScenario(mkAvoid)
		checkSubset(t, m, "RunGrantDeadlockScenario", run.Observed)
	})
	t.Run("request-avoidance", func(t *testing.T) {
		run := app.RunRequestDeadlockScenario(mkAvoid)
		checkSubset(t, m, "RunRequestDeadlockScenario", run.Observed)
	})
	t.Run("robot-rtos5", func(t *testing.T) {
		run := app.RunRobotScenario(app.NewRTOS5Locks, false)
		checkSubset(t, m, "RunRobotScenario", run.Observed)
	})
	t.Run("robot-rtos6", func(t *testing.T) {
		run := app.RunRobotScenario(app.NewRTOS6Locks, false)
		checkSubset(t, m, "RunRobotScenario", run.Observed)
	})
	t.Run("chaos", func(t *testing.T) {
		w := app.BuildChaosScenario(app.NewRTOS6Locks)
		w.S.Run()
		if task, key, bad := w.Audit.Witness(m.Scenario("BuildChaosScenario")); bad {
			t.Errorf("BuildChaosScenario: task %s held %s at runtime, but no static claim covers it", task, key)
		}
		if len(w.Audit.Observed()) == 0 {
			t.Fatal("BuildChaosScenario: runtime audit observed no holds")
		}
	})
}

// The inferred manifest must be usable as the avoidance configuration: a
// Banker's-algorithm backend whose maximal claims come verbatim from the
// claims pass has to steer both avoidance scenarios to deadlock-free
// completion, refusing the unsafe grants along the way.
func TestBankerFromManifestAvoidsDeadlock(t *testing.T) {
	m := loadAppManifest(t)

	for _, tc := range []struct {
		scenario string
		run      func(func() app.AvoidanceBackend, ...app.Option) app.AvoidanceResult
		avoided  func(app.AvoidanceResult) bool
	}{
		{"RunGrantDeadlockScenario", app.RunGrantDeadlockScenario,
			func(r app.AvoidanceResult) bool { return r.GDlAvoided }},
		{"RunRequestDeadlockScenario", app.RunRequestDeadlockScenario,
			func(r app.AvoidanceResult) bool { return r.RDlAvoided }},
	} {
		sc := m.Scenario(tc.scenario)
		if sc == nil {
			t.Fatalf("manifest has no scenario %q", tc.scenario)
		}
		if len(sc.ResourceClaims()) == 0 {
			t.Fatalf("%s: manifest carries no resource claims to configure the Banker", tc.scenario)
		}
		mk := func() app.AvoidanceBackend {
			b, err := app.NewBankerFromManifest(sc, 5, 5)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		res := tc.run(mk)
		if !res.Completed {
			t.Errorf("%s under Banker(manifest): scenario did not complete deadlock-free", tc.scenario)
		}
		if !tc.avoided(res) {
			t.Errorf("%s under Banker(manifest): the engineered deadlock was not exercised/avoided", tc.scenario)
		}
		checkSubset(t, m, tc.scenario, res.Observed)
	}
}

// The ceiling pass must validate the robot scenario's IPCP programming: both
// long locks carry dominating ceilings, and the worst-case blocking bounds
// agree with the blocking engine's independently computed ceiling term while
// preserving the Figure 20 structure (task_1 and task_3 each blocked by one
// lower-priority critical section; nothing blocks the lowest-priority task).
func TestCeilingPassValidatesRobotIPCP(t *testing.T) {
	pkg := loadApp(t)
	diags, res, err := framework.RunAnalyzer(pkg, Ceiling())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected ceiling diagnostic: %v: %s", d.Pos, d.Message)
	}
	cr := res.(*CeilingResult)

	wantCeil := map[int]int{0: 1, 1: 3}
	seen := map[int]bool{}
	for _, l := range cr.Locks {
		want, relevant := wantCeil[l.ID]
		if !relevant {
			continue
		}
		seen[l.ID] = true
		if !l.Programmed || l.Ceiling != want {
			t.Errorf("lock %d: programmed=%v ceiling=%d, want programmed ceiling %d", l.ID, l.Programmed, l.Ceiling, want)
		}
		if !l.HasAcquirerPrio || l.Ceiling > l.MinAcquirerPrio {
			t.Errorf("lock %d: ceiling %d does not dominate highest acquirer priority %d", l.ID, l.Ceiling, l.MinAcquirerPrio)
		}
	}
	for id := range wantCeil {
		if !seen[id] {
			t.Errorf("ceiling pass reported nothing for long lock %d", id)
		}
	}

	// The per-task worst-case blocking numbers are no longer pinned by hand:
	// they must agree with the blocking engine's independent IPCP
	// push-through term, and carry the Figure 20 structure (the two
	// highest-priority lock users are each blocked by a lower-priority
	// critical section under a dominated ceiling; nothing can block the
	// lowest-priority task).
	_, bres, err := framework.RunAnalyzer(pkg, Blocking())
	if err != nil {
		t.Fatal(err)
	}
	engine := map[string]BlockingBound{}
	for _, b := range bres.(*BlockingResult).Bounds {
		if b.Scenario == "RunRobotScenario" {
			engine[b.Task] = b
		}
	}
	prio := map[string]int{}
	got := map[string]TaskBlocking{}
	for _, b := range cr.Blocking {
		if b.Scenario == "RunRobotScenario" {
			got[b.Task] = b
			prio[b.Task] = b.Prio
		}
	}
	for task, g := range got {
		eb, ok := engine[task]
		if !ok {
			t.Errorf("blocking engine computed no bound for %s in RunRobotScenario", task)
			continue
		}
		if g.Bound != eb.Ceiling {
			t.Errorf("%s: ceiling pass blocking bound %d disagrees with the blocking engine's ceiling term %d",
				task, g.Bound, eb.Ceiling)
		}
		if g.Bound == 0 {
			continue
		}
		if bp, ok := prio[g.By]; !ok || bp <= g.Prio {
			t.Errorf("%s (prio %d): blocked by %s which is not a lower-priority task of the scenario",
				task, g.Prio, g.By)
		}
		if c, ok := wantCeil[g.Lock]; !ok || c > g.Prio {
			t.Errorf("%s (prio %d): blocking lock %d has no programmed ceiling dominating the task",
				task, g.Prio, g.Lock)
		}
	}
	for _, task := range []string{"task1", "task3"} {
		if got[task].Bound == 0 {
			t.Errorf("%s: expected a nonzero IPCP blocking bound (Figure 20), got 0", task)
		}
	}
	if lowest := got["task5"]; lowest.Bound != 0 {
		t.Errorf("task5 is the lowest-priority task; nothing should block it, got bound %d", lowest.Bound)
	}
}
