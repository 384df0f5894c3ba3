package experiments

import (
	"fmt"

	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/strategy"
)

// ChurnRow is one cell of the recovery sweep: a planned case served with
// the given admission window suffers a single-device failure at FailFrac of
// its churn-free duration, with and without online recovery. Goodput is
// committed images over the common horizon (the longer of the two runs), so
// the truncated stream's lost tail actually costs it.
type ChurnRow struct {
	Case     string
	Window   int
	FailFrac float64

	FailAtSec  float64 // absolute failure time in the trace
	DropDevice int     // provider killed (the one carrying the most rows)
	BaseIPS    float64 // churn-free sustained rate

	GoodputOn    float64 // with recovery (re-plan over survivors)
	GoodputOff   float64 // without (stream truncates at the failure)
	CompletedOff int     // images the truncated stream delivered
	RecoverSec   float64 // time from the failure to the first recovered completion
	Requeued     int     // in-flight images the recovery re-admitted
}

// ChurnReplanChargeSec is the modelled controller cost of one recovery:
// re-planning over the survivors plus redeploying them. The runtime's
// measured BalancedReplan + redeploy is single-digit milliseconds on
// localhost; 10ms also budgets real-network plan distribution. It is the
// ReplanSec of the scenario distredge -churn predicts, so the command and
// the distbench sweep predict the same recovery cost.
const ChurnReplanChargeSec = 0.01

// DefaultChurnFracs is the failure-time grid of the recovery sweep.
func DefaultChurnFracs() []float64 { return []float64{0.25, 0.5, 0.75} }

// heaviestProvider returns the provider holding the most output rows under
// the strategy — the most damaging single failure.
func heaviestProvider(env *sim.Env, s *strategy.Strategy) int {
	n := env.NumProviders()
	best, bestRows := 0, -1
	for i := 0; i < n; i++ {
		rows := 0
		for v := 0; v < s.NumVolumes(); v++ {
			rows += s.PartRange(env.Model, v, i).Len()
		}
		if rows > bestRows {
			bestRows = rows
			best = i
		}
	}
	return best
}

// FigChurnRecovery measures time-to-recover and goodput versus failure time
// and admission window: each case is planned once (DistrEdge pipeline),
// then every (window, failure-fraction) cell drops the heaviest provider at
// that point of the stream and compares recover-on against recover-off via
// sim.Serve with the profile-guided re-planner. Cases run on the
// budget's worker pool; rows are deterministic for any worker count.
func FigChurnRecovery(b Budget, windows []int, fracs []float64) ([]ChurnRow, error) {
	if len(windows) == 0 {
		windows = DefaultWindows()
	}
	if len(fracs) == 0 {
		fracs = DefaultChurnFracs()
	}
	specs := windowSpecs(b.Seed)
	perCase := make([][]ChurnRow, len(specs))
	err := runIndexed(len(specs), b.Workers(), func(ci int) error {
		spec := specs[ci]
		env := spec.Env()
		planned, err := Request{Budget: b, Alpha: 0.75}.Plan(env, nil, nil)
		if err != nil {
			return fmt.Errorf("experiments: churn sweep %s: %w", spec.Name, err)
		}
		drop := heaviestProvider(env, planned)
		var rows []ChurnRow
		for _, w := range windows {
			base, err := env.Serve(planned, pipelined(b.StreamImages, w))
			if err != nil {
				return fmt.Errorf("experiments: churn sweep %s w=%d: %w", spec.Name, w, err)
			}
			for _, frac := range fracs {
				failAt := base.TotalSec * frac
				events := []sim.ChurnEvent{{At: failAt, Kind: sim.DeviceDrop, Device: drop}}
				sc := pipelined(b.StreamImages, w)
				sc.Events = events
				off, err := env.Serve(planned, sc)
				if err != nil {
					return fmt.Errorf("experiments: churn sweep %s w=%d f=%.2f (off): %w", spec.Name, w, frac, err)
				}
				sc.ChurnOptions = sim.ChurnOptions{
					ReplanSec: ChurnReplanChargeSec,
					Replan:    splitter.BalancedReplan,
				}
				on, err := env.Serve(planned, sc)
				if err != nil {
					return fmt.Errorf("experiments: churn sweep %s w=%d f=%.2f (on): %w", spec.Name, w, frac, err)
				}
				horizon := on.TotalSec
				if off.TotalSec > horizon {
					horizon = off.TotalSec
				}
				row := ChurnRow{
					Case:         spec.Name,
					Window:       w,
					FailFrac:     frac,
					FailAtSec:    failAt,
					DropDevice:   drop,
					BaseIPS:      base.IPS,
					CompletedOff: off.Completed,
					Requeued:     on.Requeued,
				}
				if horizon > 0 {
					row.GoodputOn = float64(on.Completed) / horizon
					row.GoodputOff = float64(off.Completed) / horizon
				}
				if len(on.EventRecoverySec) > 0 {
					row.RecoverSec = on.EventRecoverySec[0]
				}
				rows = append(rows, row)
			}
		}
		perCase[ci] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []ChurnRow
	for _, rows := range perCase {
		out = append(out, rows...)
	}
	return out, nil
}
