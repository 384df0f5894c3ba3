package runtime

import (
	"fmt"

	"distredge/internal/strategy"
)

// recover is the churn-recovery procedure. heal runs it under the exclusive
// serving gate once an attempt failed on deployment `old`, so no admission
// or completion waiter is live while the deployment is replaced:
//
//  1. quarantine — every suspect (the failure's attributed provider plus
//     anything the health monitor declared dead) leaves the alive mask;
//  2. drain — results that already arrived stay counted, while the
//     completion table forgets every armed image and its gc cursor jumps
//     past every id allocated so far (their ids are dead: image ids are
//     monotonic, so a late chunk from the old deployment can never
//     resurrect them);
//  3. re-plan — Options.Replan produces a strategy over the survivors,
//     warm-started from the serving one;
//  4. redeploy — fresh providers for the survivors as the next deployment,
//     published with one Store. The old deployment's providers report into
//     the old latch and beat with the old epoch, so nothing they still say
//     reaches the new one.
//
// Every caller whose attempt failed then re-scatters its own image.
func (c *Cluster) recover(old *deployment) error {
	// 1. Quarantine the suspects.
	suspect, cause := old.cause()
	alive := append([]bool(nil), old.alive...)
	newlyDead := 0
	quarantine := func(i int) {
		if i >= 0 && i < len(alive) && alive[i] {
			alive[i] = false
			newlyDead++
		}
	}
	quarantine(suspect)
	if c.health != nil {
		for _, i := range c.health.deadSet() {
			quarantine(i)
		}
	}
	if newlyDead == 0 {
		// A timeout with every provider still beating: recovery cannot
		// make progress.
		return fmt.Errorf("runtime: no identifiable dead provider (cause: %v)", cause)
	}
	if strategy.CountAlive(alive) == 0 {
		return fmt.Errorf("runtime: no surviving providers")
	}

	// 2. Tear down the old deployment and drain the completion table: every
	// id allocated so far is now either delivered or dead, and the
	// redeployed providers start with no state for the cursor to guard.
	// New image ids will be allocated for the re-scatters, so stale
	// assembly state and late chunks from the old deployment are
	// unreachable by construction.
	old.close()
	c.comp.drainThrough(c.nextImg.Load())

	// 3. Re-plan over the survivors.
	strat, err := c.opts.Replan(c.env, old.strat, alive)
	if err != nil {
		return fmt.Errorf("runtime: re-plan: %w", err)
	}
	plan, err := BuildPlan(c.env, strat, c.opts)
	if err != nil {
		return fmt.Errorf("runtime: re-plan compiled an invalid strategy: %w", err)
	}

	// 4. Redeploy the survivors and publish.
	next, err := c.start(old.epoch+1, strat, plan, alive)
	if err != nil {
		return fmt.Errorf("runtime: redeploy: %w", err)
	}
	c.dep.Store(next)
	if c.health != nil {
		c.health.arm(next.epoch, alive)
	}
	return nil
}
