package passes

import (
	"testing"

	"deltartos/internal/analysis/framework"
	"deltartos/internal/app"
	"deltartos/internal/fault"
)

// loadRingReport runs the ipc pass over the real internal/app sources and
// returns the BuildRingScenario scope report.
func loadRingReport(t *testing.T) IPCScopeReport {
	t.Helper()
	_, res, err := framework.RunAnalyzer(loadApp(t), IPC())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.(*IPCResult).Scopes {
		if s.Scope == "BuildRingScenario" {
			return s
		}
	}
	t.Fatal("ipc pass reported nothing for BuildRingScenario — the scenario wedges at runtime, so the static report lost it")
	return IPCScopeReport{}
}

// The static ipc report must be a SUPERSET of what the runtime observes:
// every task the kernel's IPC deadlock core latches on a wedged run of the
// blocking ring must sit in the pass's flagged set for the same scenario.
// (The converse need not hold — static analysis over-approximates; plenty
// of seeds leave the ring only partially wedged, or not at all.)
func TestStaticIPCFlagsCoverRuntimeDeadlockCore(t *testing.T) {
	rep := loadRingReport(t)
	if !rep.Expected {
		t.Error("BuildRingScenario cycle not marked ipc-expected despite its directive")
	}
	flagged := map[string]bool{}
	for _, name := range rep.Flagged {
		flagged[name] = true
	}
	hasCycle := false
	for _, f := range rep.Findings {
		if f.Kind == "cycle" {
			hasCycle = true
		}
	}
	if !hasCycle {
		t.Fatalf("no static send/recv cycle in BuildRingScenario (findings %+v)", rep.Findings)
	}

	// Drive the blocking ring into actual wedges with message-drop plans and
	// check containment of every latched core.
	wedged := 0
	for seed := uint64(1); seed <= 24; seed++ {
		w := app.BuildRingScenario()
		plan := fault.NewPlan(seed).Randomize(8, []fault.Kind{fault.MsgDrop}, fault.Profile{
			Tasks:     app.RingTaskNames,
			Endpoints: app.RingEndpointNames,
			Horizon:   12000,
		})
		plan.Attach(w.K, nil, nil, nil)
		w.S.RunUntil(1_000_000)
		core := w.K.IPCDeadlockCore()
		if len(core) == 0 {
			continue
		}
		wedged++
		for _, name := range core {
			if !flagged[name] {
				t.Errorf("seed %d: task %q is in the runtime IPC deadlock core but not statically flagged (static set %v)",
					seed, name, rep.Flagged)
			}
		}
	}
	if wedged == 0 {
		t.Fatal("no seed wedged the blocking ring; the containment check proved nothing")
	}
}

// The timeout-hardened ring must be statically clean: every operation in it
// is bounded, so a finding there would be a pass bug (bounded variants are
// never edge sources).
func TestStaticIPCCleanOnTimeoutRing(t *testing.T) {
	_, res, err := framework.RunAnalyzer(loadApp(t), IPC())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.(*IPCResult).Scopes {
		if s.Scope == "BuildRingTimeoutScenario" {
			t.Errorf("ipc pass flagged the timeout-hardened ring: %+v", s.Findings)
		}
	}
}
