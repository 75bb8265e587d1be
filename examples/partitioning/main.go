// Partitioning: the δ framework's central design decision, one row per
// deadlock configuration of Table 3 (detection/avoidance × software/
// hardware).  The same app package runs each system: RTOS1/RTOS2 plug a
// PDDA or DDU Detector into the Table 4 detection scenario, which reaches
// the deadlock and reports it; RTOS3/RTOS4 plug a DAA or DAU backend into
// the Table 6 grant-deadlock scenario, which steers around it.  The
// per-invocation algorithm cost shows the hardware win.
//
// Run with: go run ./examples/partitioning
package main

import (
	"fmt"
	"log"

	"deltartos/internal/app"
)

const rowFormat = "%-6s %-18s %-12s %-12s %-12s %s\n"

func main() {
	fmt.Printf(rowFormat, "system", "mechanism", "invocations", "alg cycles", "app cycles", "outcome")
	detect("RTOS1", func() app.Detector { return &app.SoftwareDetector{} })
	detect("RTOS2", func() app.Detector {
		d, err := app.NewHardwareDetector(5, 5)
		if err != nil {
			log.Fatal(err)
		}
		return d
	})
	avoid("RTOS3", func() app.AvoidanceBackend {
		b, err := app.NewSoftwareAvoidance(5, 5)
		if err != nil {
			log.Fatal(err)
		}
		return b
	})
	avoid("RTOS4", func() app.AvoidanceBackend {
		b, err := app.NewHardwareAvoidance(5, 5)
		if err != nil {
			log.Fatal(err)
		}
		return b
	})
}

// detect runs the detection scenario, which must end in a detected deadlock.
func detect(system string, mkDet func() app.Detector) {
	r := app.RunDetectionScenario(mkDet)
	if !r.DeadlockFound {
		log.Fatalf("%s: %s missed the grant deadlock", system, r.Mechanism)
	}
	outcome := "deadlock detected:"
	for _, p := range r.DeadlockedProcs {
		outcome += fmt.Sprintf(" p%d", p+1)
	}
	fmt.Printf(rowFormat, system, r.Mechanism, fmt.Sprint(r.Invocations),
		fmt.Sprintf("%.2f", r.AvgDetectCycles), fmt.Sprint(r.AppCycles), outcome)
}

// avoid runs the grant-deadlock scenario, which must complete without one.
func avoid(system string, mkBackend func() app.AvoidanceBackend) {
	r := app.RunGrantDeadlockScenario(mkBackend)
	if !r.Completed || !r.GDlAvoided {
		log.Fatalf("%s: %s did not avoid the grant deadlock: %+v", system, r.Mechanism, r)
	}
	fmt.Printf(rowFormat, system, r.Mechanism, fmt.Sprint(r.Invocations),
		fmt.Sprintf("%.2f", r.AvgAlgCycles), fmt.Sprint(r.AppCycles),
		"grant deadlock avoided, all tasks completed")
}
