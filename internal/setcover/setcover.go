// Package setcover implements the greedy heuristic for the weighted
// set-covering problem that the greedy aggregation scheme uses twice: to
// compute the energy cost of an outgoing aggregate (§4.2) and to pick which
// neighbors to negatively reinforce (§4.3).
//
// An instance is a universe X and a family of weighted subsets S_i ⊆ X with
// weights w_i. The greedy heuristic repeatedly selects the subset with the
// lowest cost ratio w_i / |uncovered(S_i)| until X is covered, then removes
// subsets made redundant by the rest of the cover. Its worst-case
// approximation ratio is ln d + 1 where d = max_i |S_i|.
package setcover

import (
	"fmt"
	"math"
	"slices"
)

// Subset is one candidate set with its weight. Elements are identified by
// comparable keys chosen by the caller (event keys for aggregate costing,
// source IDs for truncation).
type Subset[E comparable] struct {
	// Label identifies the subset to the caller (e.g. the neighbor that
	// sent the aggregate).
	Label int
	// Elements are the members of the subset. Duplicates are ignored.
	Elements []E
	// Weight is the subset's cost; it must be non-negative.
	Weight float64
}

// Cover is the result of the greedy heuristic.
type Cover[E comparable] struct {
	// Chosen holds the indices (into the input family) of the selected
	// subsets, in selection order, after redundant-subset removal.
	Chosen []int
	// Weight is the total weight of the chosen subsets.
	Weight float64
	// Uncovered holds any universe elements no subset contains. If
	// non-empty the instance was infeasible and the cover is best-effort
	// over the coverable part.
	Uncovered []E
}

// Covers reports whether the whole universe was covered.
func (c Cover[E]) Covers() bool { return len(c.Uncovered) == 0 }

// ChosenLabels maps the chosen indices through the family's labels.
func ChosenLabels[E comparable](family []Subset[E], c Cover[E]) []int {
	out := make([]int, 0, len(c.Chosen))
	for _, i := range c.Chosen {
		out = append(out, family[i].Label)
	}
	return out
}

// Greedy computes a low-weight cover of universe by the family using the
// greedy heuristic with redundant-subset removal. Ties on cost ratio are
// broken toward the lower family index, keeping runs deterministic.
//
// Subsets with negative weight cause an error: the heuristic's guarantees
// (and the protocol's cost semantics) assume non-negative costs.
//
// Greedy is the one-shot form of Solver.Solve: the returned Cover is the
// caller's to keep.
func Greedy[E comparable](universe []E, family []Subset[E]) (Cover[E], error) {
	var s Solver[E]
	return s.Solve(universe, family)
}

// Solver is a reusable workspace for the greedy heuristic. Instances on the
// protocol's per-message path hold tens of elements, so elements get dense
// ids by linear scan rather than hashing, and all per-call state lives in
// slices that grow to the high-water mark and stay: a warmed Solver
// allocates nothing. The zero value is ready to use. A Solver is not safe
// for concurrent use.
type Solver[E comparable] struct {
	elems   []E     // dense id -> element, in first-occurrence universe order
	members []int32 // every subset's distinct in-universe element ids, back to back
	starts  []int32 // subset i's ids are members[starts[i]:starts[i+1]]
	mark    []int32 // per id: 1 + the last subset that listed it (dedup)
	covered []bool  // per id
	counts  []int32 // per id: chosen subsets containing it
	used    []bool  // per subset
	chosen  []int
	miss    []E
}

// Solve computes exactly what Greedy computes for the same inputs: the same
// Chosen order, Weight summed in that order, and Uncovered in
// first-occurrence universe order, each reported once. The returned Cover's
// slices belong to the Solver and are valid until its next Solve.
func (s *Solver[E]) Solve(universe []E, family []Subset[E]) (Cover[E], error) {
	for i, sub := range family {
		if sub.Weight < 0 || math.IsNaN(sub.Weight) {
			return Cover[E]{}, fmt.Errorf("setcover: subset %d has invalid weight %v", i, sub.Weight)
		}
	}

	s.elems = s.elems[:0]
	for _, e := range universe {
		if s.id(e) < 0 {
			s.elems = append(s.elems, e)
		}
	}
	n := len(s.elems)
	s.mark = resize(s.mark, n)
	s.covered = resize(s.covered, n)
	s.counts = resize(s.counts, n)

	// Elements outside the universe are irrelevant; duplicates within a
	// subset count once.
	s.members = s.members[:0]
	s.starts = append(s.starts[:0], 0)
	for i, sub := range family {
		for _, e := range sub.Elements {
			if id := s.id(e); id >= 0 && s.mark[id] != int32(i+1) {
				s.mark[id] = int32(i + 1)
				s.members = append(s.members, id)
			}
		}
		s.starts = append(s.starts, int32(len(s.members)))
	}

	s.used = resize(s.used, len(family))
	s.chosen = s.chosen[:0]
	for uncovered := n; uncovered > 0; {
		best, bestRatio, bestGain := -1, math.Inf(1), 0
		for i := range family {
			if s.used[i] {
				continue
			}
			gain := 0
			for _, id := range s.subset(i) {
				if !s.covered[id] {
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			ratio := family[i].Weight / float64(gain)
			if ratio < bestRatio || (ratio == bestRatio && i < best) {
				best, bestRatio, bestGain = i, ratio, gain
			}
		}
		if best < 0 {
			break // remaining elements are uncoverable
		}
		s.used[best] = true
		s.chosen = append(s.chosen, best)
		for _, id := range s.subset(best) {
			s.covered[id] = true
		}
		uncovered -= bestGain
	}

	s.removeRedundant()

	var weight float64
	for _, i := range s.chosen {
		weight += family[i].Weight
	}
	s.miss = s.miss[:0]
	for id, e := range s.elems {
		if !s.covered[id] {
			s.miss = append(s.miss, e)
		}
	}
	return Cover[E]{Chosen: s.chosen, Weight: weight, Uncovered: s.miss}, nil
}

// id returns e's dense id, or -1 if e is not in the universe.
func (s *Solver[E]) id(e E) int32 {
	for i, x := range s.elems {
		if x == e {
			return int32(i)
		}
	}
	return -1
}

// subset returns subset i's distinct in-universe element ids.
func (s *Solver[E]) subset(i int) []int32 {
	return s.members[s.starts[i]:s.starts[i+1]]
}

// removeRedundant drops any chosen subset whose elements are all covered by
// the union of the other chosen subsets — the final step of the heuristic in
// §4.2. Candidates are examined in reverse selection order (later, lower
// value picks go first) and the surviving order is preserved.
func (s *Solver[E]) removeRedundant() {
	if len(s.chosen) <= 1 {
		return
	}
	for _, i := range s.chosen {
		for _, id := range s.subset(i) {
			s.counts[id]++
		}
	}
	for k := len(s.chosen) - 1; k >= 0; k-- {
		i := s.chosen[k]
		redundant := true
		for _, id := range s.subset(i) {
			if s.counts[id] < 2 {
				redundant = false
				break
			}
		}
		if redundant {
			s.used[i] = false // marks the drop for the compaction below
			for _, id := range s.subset(i) {
				s.counts[id]--
			}
		}
	}
	out := s.chosen[:0]
	for _, i := range s.chosen {
		if s.used[i] {
			out = append(out, i)
		}
	}
	s.chosen = out
}

// resize returns buf with length n and every element zeroed, reusing its
// backing array when large enough and growing it as append would otherwise.
func resize[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// TransformToSources rescales a family of event-subsets into the paper's
// source-domain instance for path truncation (§4.3): each subset's elements
// are replaced by the set of values under key, and its weight becomes
// w · |S*| / |S| so the initial cost ratios are preserved.
//
// The transformed subsets are appended to dst and their elements to buf,
// back to back; both grown slices are returned so the caller can reuse them.
func TransformToSources[E comparable, S comparable](dst []Subset[S], buf []S, family []Subset[E], key func(E) S) ([]Subset[S], []S) {
	// Reserving the worst case up front keeps every subset's elements in one
	// backing array.
	total := 0
	for _, s := range family {
		total += len(s.Elements)
	}
	buf = slices.Grow(buf, total)
	dst = slices.Grow(dst, len(family))
	for _, s := range family {
		start := len(buf)
		for _, e := range s.Elements {
			if k := key(e); !slices.Contains(buf[start:], k) {
				buf = append(buf, k)
			}
		}
		elems := buf[start:len(buf):len(buf)]
		w := s.Weight
		if len(s.Elements) > 0 {
			w = s.Weight * float64(len(elems)) / float64(len(s.Elements))
		}
		dst = append(dst, Subset[S]{Label: s.Label, Elements: elems, Weight: w})
	}
	return dst, buf
}
