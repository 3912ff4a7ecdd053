package mbf

// Stepper drives a sparse fixpoint one iteration at a time for callers that
// need to observe (or account for) the states between steps — the CONGEST
// simulations meter per-round message sizes, so they cannot hand the whole
// loop to RunToFixpoint. It is a one-lane run of the frontier driver that
// owns its state vector, so each Step is the in-place O(affected) iteration
// of RunToFixpoint's loop.
//
// A Stepper is not safe for concurrent use (each Step parallelises
// internally), and the runner's Graph/Module/Filter must not change while a
// stepper is live. Call Release when done to drop the frontier bookkeeping;
// the state vector stays valid afterwards.
type Stepper[S, M any] struct {
	s     *sweep[S, M]
	x     []M
	steps int
}

// NewStepper filters x0 into a stepper-owned vector and seeds the frontier
// exactly as RunToFixpoint does before its first iteration. The input
// vector is not retained.
func (r *Runner[S, M]) NewStepper(x0 []M) *Stepper[S, M] {
	x := append([]M(nil), x0...)
	s := r.newSweep([][]M{x}, []BatchLane[M]{r.lane()})
	s.seedFresh()
	return &Stepper[S, M]{s: s, x: x}
}

// Step performs one sparse iteration in place and reports whether any state
// changed. Once it returns false the fixpoint is reached and further calls
// are no-ops.
func (st *Stepper[S, M]) Step() bool {
	if st.Done() {
		return false
	}
	st.s.step()
	st.steps++
	return !st.Done()
}

// Done reports whether the fixpoint has been reached.
func (st *Stepper[S, M]) Done() bool { return st.s == nil || len(st.s.front) == 0 }

// States returns the stepper's current state vector. The stepper keeps
// mutating it on Step; callers that need a stable snapshot must copy.
func (st *Stepper[S, M]) States() []M { return st.x }

// Steps returns the number of iterations performed so far.
func (st *Stepper[S, M]) Steps() int { return st.steps }

// Release drops the stepper's frontier bookkeeping. The state vector
// remains readable; Step must not be called afterwards.
func (st *Stepper[S, M]) Release() { st.s = nil }
