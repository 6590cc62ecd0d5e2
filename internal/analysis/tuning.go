package analysis

import (
	"time"

	"iolayers/internal/darshan"
)

// userTuning accumulates one user's observable I/O tuning signals per
// calendar half-year: the widest Lustre stripe layout their files carried
// and their collective-vs-independent MPI-IO operation mix.
type userTuning struct {
	seen       [2]bool
	maxStripe  [2]int64
	collOps    [2]int64
	indepOps   [2]int64
	jobsInHalf [2]int64
}

// observeTuning folds one log's tuning signals — the widest Lustre stripe
// layout over its records and its MPI-IO collective/independent operation
// sums — into its user's per-half-year state.
func (a *Aggregator) observeTuning(rows *darshan.LogRows) {
	half := 0
	if time.Unix(rows.Job.StartTime, 0).UTC().Month() >= time.July {
		half = 1
	}
	ut, ok := a.tuning[rows.Job.UserID]
	if !ok {
		ut = &userTuning{}
		a.tuning[rows.Job.UserID] = ut
	}
	ut.seen[half] = true
	ut.jobsInHalf[half]++
	ut.maxStripe[half] = max(ut.maxStripe[half], rows.TuneStripe)
	ut.collOps[half] += rows.TuneColl
	ut.indepOps[half] += rows.TuneIndep
}

// TuningAdoption answers the paper's §5 future-work question from the logs
// alone: of the users active in both halves of the year, how many show
// evidence of having tuned their I/O in later executions?
type TuningAdoption struct {
	// UsersBothHalves is the population the question is well-posed for.
	UsersBothHalves int
	// AdoptedStriping counts users whose second-half files carry a wider
	// maximum Lustre stripe layout than any of their first-half files.
	AdoptedStriping int
	// AdoptedCollective counts users whose second-half MPI-IO collective
	// share rose by more than 0.2 over their first half.
	AdoptedCollective int
	// AdoptedAny counts users matching either signal.
	AdoptedAny int
}

// tuningAdoption derives the report from the per-user state.
func (a *Aggregator) tuningAdoption() TuningAdoption {
	var out TuningAdoption
	for _, ut := range a.tuning {
		if !ut.seen[0] || !ut.seen[1] {
			continue
		}
		out.UsersBothHalves++
		striping := ut.maxStripe[1] > ut.maxStripe[0] && ut.maxStripe[0] > 0
		collective := false
		if d0, d1 := ut.collOps[0]+ut.indepOps[0], ut.collOps[1]+ut.indepOps[1]; d0 > 0 && d1 > 0 {
			f0 := float64(ut.collOps[0]) / float64(d0)
			f1 := float64(ut.collOps[1]) / float64(d1)
			collective = f1-f0 > 0.2
		}
		if striping {
			out.AdoptedStriping++
		}
		if collective {
			out.AdoptedCollective++
		}
		if striping || collective {
			out.AdoptedAny++
		}
	}
	return out
}

// mergeTuning folds another aggregator's per-user tuning state into this one.
func (a *Aggregator) mergeTuning(other *Aggregator) {
	for uid, o := range other.tuning {
		ut, ok := a.tuning[uid]
		if !ok {
			a.tuning[uid] = o
			continue
		}
		for h := 0; h < 2; h++ {
			ut.seen[h] = ut.seen[h] || o.seen[h]
			if o.maxStripe[h] > ut.maxStripe[h] {
				ut.maxStripe[h] = o.maxStripe[h]
			}
			ut.collOps[h] += o.collOps[h]
			ut.indepOps[h] += o.indepOps[h]
			ut.jobsInHalf[h] += o.jobsInHalf[h]
		}
	}
}
