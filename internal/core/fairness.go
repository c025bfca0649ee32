package core

// Fairness keeps the per-task-type sufferage scores (gamma_k) that offset
// the pruning threshold (Section IV-D). Dropping a task of type k raises
// gamma_k by the fairness factor c; completing one on time lowers it by c.
// A high sufferage score shrinks the effective threshold beta - gamma_k, so
// a type that has been pruned repeatedly becomes harder to prune again.
//
// Scores are clamped at zero from below: the paper's pseudo-code (Figure 5)
// lets gamma go negative on sustained on-time completions, but an unbounded
// negative score would inflate the effective threshold of well-served types
// without limit and eventually prune everything; clamping preserves the
// stated intent ("keep track of the suffered task types ... avoid biasness
// against them") while keeping the mechanism stable over long runs.
type Fairness struct {
	factor float64
	scores []float64
}

// NewFairness creates scores for n task types with the given fairness
// factor c. A zero factor disables the mechanism (scores stay 0).
func NewFairness(n int, factor float64) *Fairness {
	if n <= 0 {
		panic("core: Fairness requires at least one task type")
	}
	if factor < 0 {
		panic("core: fairness factor must be non-negative")
	}
	return &Fairness{factor: factor, scores: make([]float64, n)}
}

// Factor returns the fairness factor c.
func (f *Fairness) Factor() float64 { return f.factor }

// Score returns gamma_k for task type k.
func (f *Fairness) Score(taskType int) float64 { return f.scores[taskType] }

// OnDropped raises type k's sufferage score by c.
func (f *Fairness) OnDropped(taskType int) {
	f.scores[taskType] += f.factor
}

// OnCompletedOnTime lowers type k's sufferage score by c, clamped at zero.
func (f *Fairness) OnCompletedOnTime(taskType int) {
	f.scores[taskType] -= f.factor
	if f.scores[taskType] < 0 {
		f.scores[taskType] = 0
	}
}
