package report

import (
	"fmt"
	"io"

	"kard/internal/core"
	"kard/internal/harness"
	"kard/internal/racecatalog"
	"kard/internal/sim"
)

// Catalog runs the race-pattern catalog under all three detectors and
// prints the verdict matrix — a live rendering of the scope comparison of
// Tables 1 and 2.
func Catalog(w io.Writer, o Options) error {
	o.defaults()
	fmt.Fprintf(w, "Race-pattern catalog: reported racy objects per detector (seed=%d)\n\n", o.Seed)
	header := fmt.Sprintf("%-32s %-5s %6s %6s %8s", "pattern", "racy", "kard", "tsan", "lockset")
	fmt.Fprintln(w, header)
	rule(w, len(header))

	runOne := func(p racecatalog.Pattern, mode harness.Mode) (int, error) {
		cfg := sim.Config{Seed: o.Seed}
		det, err := mode.Configure(&cfg, core.Options{})
		if err != nil {
			return 0, err
		}
		e := sim.New(cfg, det)
		st, err := e.Run(func(m *sim.Thread) { p.Build(e, m) })
		if err != nil {
			return 0, fmt.Errorf("%s under %s: %w", p.Name, mode, err)
		}
		seen := map[string]bool{}
		for _, r := range st.Races {
			seen[r.Object.Site] = true
		}
		return len(seen), nil
	}

	for _, p := range racecatalog.All() {
		var counts [3]int
		for i, m := range []harness.Mode{harness.ModeKard, harness.ModeTSan, harness.ModeLockset} {
			n, err := runOne(p, m)
			if err != nil {
				return err
			}
			counts[i] = n
		}
		racy := "no"
		if p.Racy {
			racy = "yes"
		}
		fmt.Fprintf(w, "%-32s %-5s %6d %6d %8d\n", p.Name, racy, counts[0], counts[1], counts[2])
		fmt.Fprintf(w, "    %s\n", p.Why)
	}
	return nil
}
