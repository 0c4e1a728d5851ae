package harness

import (
	"encoding/json"
	"fmt"
	"testing"

	"kard/internal/sim"
	"kard/internal/workload"
)

// TestExecModeDifferential is the byte-identity proof for the batched
// execution engine (DESIGN.md §12): every workload of the corpus, under
// every comparator detector and several seeds, must produce statistics,
// race reports, and progress summaries that encode to exactly the same
// bytes under ExecModeSerial (the scalar oracle) and the default
// ExecModeParallel (batched replay), the mode every non-test run
// executes. Anything that moves — a clock, a TLB counter, an operation
// count, a race record — is a bug in the batch machinery, not noise.
//
// The full sweep is every registered workload (the 19 applications plus
// the race corpus) x 3 detectors x 5 seeds, each run in both modes;
// -short (and -race, whose ~10x slowdown would push the full sweep past
// any sane package timeout) trims the seeds and detectors, still
// crossing every workload's drain paths.
func TestExecModeDifferential(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	modes := []Mode{ModeKard, ModeTSan, ModeLockset}
	scale := 0.05
	if testing.Short() {
		seeds = seeds[:2]
		modes = []Mode{ModeKard}
	}
	if raceEnabled {
		seeds = seeds[:1]
		modes = []Mode{ModeKard}
		scale = 0.02
	}

	type cellKey struct {
		workload string
		mode     Mode
		seed     int64
	}
	var keys []cellKey
	for _, name := range workload.Names() {
		for _, mode := range modes {
			for _, seed := range seeds {
				keys = append(keys, cellKey{workload: name, mode: mode, seed: seed})
			}
		}
	}

	// One matrix per execution mode, identical cells in identical order;
	// the matrix runner parallelizes within each matrix and stays
	// deterministic, so the runs pair up index-for-index.
	runAll := func(execMode string) []MatrixResult {
		specs := make([]Spec, len(keys))
		for i, k := range keys {
			specs[i] = Spec{Options: Options{
				Workload: k.workload,
				Mode:     k.mode,
				Seed:     k.seed,
				Scale:    scale,
				execMode: execMode,
			}}
		}
		return RunMatrix(0, specs)
	}

	encode := func(t *testing.T, r *Result) (stats, summary string) {
		t.Helper()
		st, err := json.Marshal(r.Stats)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := json.Marshal(r.Summary)
		if err != nil {
			t.Fatal(err)
		}
		return string(st), string(sum)
	}

	oracle := runAll(sim.ExecModeSerial)
	got := runAll("")
	diverged := 0
	for i, k := range keys {
		label := fmt.Sprintf("%s/%s/seed%d", k.workload, k.mode, k.seed)
		if oracle[i].Err != nil || got[i].Err != nil {
			if fmt.Sprint(oracle[i].Err) != fmt.Sprint(got[i].Err) {
				t.Errorf("%s: error diverges: serial=%v, default=%v", label, oracle[i].Err, got[i].Err)
				diverged++
			}
			continue
		}
		wantStats, wantSum := encode(t, oracle[i].Result)
		gotStats, gotSum := encode(t, got[i].Result)
		if gotStats != wantStats {
			diverged++
			if diverged <= 3 { // full JSON dumps are large; cap the noise
				t.Errorf("%s: Stats diverge from serial:\nserial: %s\ngot:    %s", label, wantStats, gotStats)
			} else {
				t.Errorf("%s: Stats diverge from serial", label)
			}
		}
		if gotSum != wantSum {
			t.Errorf("%s: Summary diverges from serial:\nserial: %s\ngot:    %s", label, wantSum, gotSum)
		}
		if nw, ng := len(oracle[i].Result.Stats.Races), len(got[i].Result.Stats.Races); nw != ng {
			t.Errorf("%s: race count diverges: serial=%d, default=%d", label, nw, ng)
		}
	}
	if diverged == 0 {
		t.Logf("%d cells byte-identical to serial", len(keys))
	}
}
