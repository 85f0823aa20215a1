package core

import (
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/edgeai/fedml/internal/checkpoint"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// This file is the round engine: the one implementation of the platform's
// round loop (Algorithm 1's outer loop). RunPlatform, RunAsyncPlatform and
// RunDirector differ only in the roundSource that produces each round's
// weighted sum; resume, the T0 schedule, round events, skip accounting, the
// Eq. 5 apply with its frozen-coordinate restore, OnRound and checkpointing
// all live here (DESIGN.md, "Round engine").

// roundSource produces the rounds the engine aggregates.
type roundSource interface {
	// gather runs round's exchange at t0 local steps against θ (which it
	// must not modify) and returns the unnormalized Eq. 5 sum Σ w·u (valid
	// until the next gather), its normalizer, and the number of updates in
	// it. An error aborts the run.
	gather(round, t0 int, theta tensor.Vec) (sum tensor.Vec, denom float64, count int, err error)
	// dispersion measures the round's update spread around the new θ, the
	// similarity proxy fed back to the T0 controller.
	dispersion(theta tensor.Vec, denom float64) float64
	// alive is the live node count reported in round events.
	alive() int
	// counters is the accounting the engine restores on resume and whose
	// Rounds/SkippedRounds it advances.
	counters() *CommStats
	// totals is the run accounting a snapshot persists.
	totals() CommStats
}

// runRounds drives src from θ (updated in place) until c.T local iterations
// have been aggregated. c must be normalized and validated.
func runRounds(c Config, theta tensor.Vec, src roundSource) error {
	logf := c.logger()
	own := src.counters()
	iter, t0, startRound := 0, c.T0, 1
	var dispersion float64
	if c.CheckpointPath != "" && c.Resume {
		st, err := checkpoint.LoadRunState(c.CheckpointPath)
		switch {
		case err == nil:
			if len(st.Theta) != len(theta) {
				return fmt.Errorf("core: resume: snapshot has %d params, model needs %d", len(st.Theta), len(theta))
			}
			theta.CopyFrom(tensor.Vec(st.Theta))
			iter, t0, dispersion, startRound = st.Iter, st.T0, st.Dispersion, st.Round+1
			*own = CommStats(st.ShardStats)
			logf("core: resumed from %s: round %d done, iter %d", c.CheckpointPath, st.Round, st.Iter)
		case errors.Is(err, os.ErrNotExist):
			// No snapshot yet: start fresh, so supervisors can always
			// restart the platform with Resume set.
		default:
			return err
		}
	}
	ckEvery := max(c.CheckpointEvery, 1)

	obsv := c.Observer
	// prevTheta is the pre-aggregation θ used to report the update norm; it
	// is only allocated when an observer is attached, keeping the nil path
	// allocation-free. frozenRef snapshots θ when the sync mask is frozen:
	// the weighted average of bit-identical frozen coordinates is not
	// bit-identical in floating point, so they are restored after ScaleInto.
	var prevTheta, frozenRef tensor.Vec
	if obsv != nil {
		prevTheta = make(tensor.Vec, len(theta))
	}
	if c.SyncMask != nil {
		frozenRef = make(tensor.Vec, len(theta))
	}

	consecSkipped := 0
	for round := startRound; iter < c.T; round++ {
		t0 = nextT0(c, round, dispersion, t0, c.T-iter)
		var roundT0 time.Time
		if obsv != nil {
			roundT0 = time.Now()
			obsv.Observe(obs.Event{Type: obs.TypeRoundStart, Round: round, Iter: iter, T0: t0, Alive: src.alive()})
		}

		sum, denom, count, err := src.gather(round, t0, theta)
		if err != nil {
			return err
		}
		if count == 0 || denom <= 0 {
			if c.RoundTimeout <= 0 {
				return fmt.Errorf("core: round %d produced no usable updates (%d nodes alive)", round, src.alive())
			}
			own.SkippedRounds++
			consecSkipped++
			if obsv != nil {
				obsv.Observe(obs.Event{Type: obs.TypeRoundSkip, Round: round, Iter: iter, T0: t0, Alive: src.alive(), Dur: time.Since(roundT0)})
			}
			logf("core: round %d produced no usable updates (%d alive); skipping aggregation", round, src.alive())
			if consecSkipped > maxConsecutiveSkips {
				return fmt.Errorf("core: %d consecutive rounds without usable updates (%d nodes alive)", consecSkipped, src.alive())
			}
			continue
		}
		consecSkipped = 0

		// Aggregate into the reused θ buffer (Eq. 5). The updates were
		// received from the nodes, which relinquished ownership on Send,
		// so none of them aliases θ or the source's reduction buffer.
		if obsv != nil {
			prevTheta.CopyFrom(theta)
		}
		frozen := c.SyncMask.frozenAt(round)
		if frozen {
			frozenRef.CopyFrom(theta)
		}
		sum.ScaleInto(1/denom, theta)
		if frozen {
			restoreFrozen(theta, frozenRef, c.SyncMask.Ranges)
		}
		dispersion = src.dispersion(theta, denom)
		iter += t0
		own.Rounds++ // in async mode this is the θ-version bump
		if obsv != nil {
			obsv.Observe(obs.Event{
				Type: obs.TypeRoundEnd, Round: round, Iter: iter, T0: t0,
				Alive: src.alive(), Dur: time.Since(roundT0),
				Value: theta.Dist(prevTheta), Dispersion: dispersion,
			})
		}
		if c.OnRound != nil {
			c.OnRound(round, iter, theta)
		}
		if c.CheckpointPath != "" && (own.Rounds%ckEvery == 0 || iter >= c.T) {
			if err := saveSnapshot(c.CheckpointPath, round, iter, t0, dispersion, theta, src.totals()); err != nil {
				return err
			}
		}
	}
	return nil
}

// saveSnapshot persists the post-aggregation state of a round for crash
// recovery.
func saveSnapshot(path string, round, iter, t0 int, dispersion float64, theta tensor.Vec, stats CommStats) error {
	st := &checkpoint.RunState{
		Version:    checkpoint.RunStateVersion,
		Round:      round,
		Iter:       iter,
		T0:         t0,
		Dispersion: dispersion,
		Theta:      append([]float64(nil), theta...),
		ShardStats: transport.ShardStats(stats),
	}
	if err := checkpoint.SaveRunState(path, st); err != nil {
		return fmt.Errorf("core: checkpoint round %d: %w", round, err)
	}
	return nil
}
