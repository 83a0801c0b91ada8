package setcover

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPaperExampleAggregateCost(t *testing.T) {
	// Figure 4(a): S1={a1,a2,b1} w=5, S2={b1,b2} w=6, S3={a2,b2} w=7.
	// Greedy picks S1 (ratio 5/3) then S2 (ratio 6/1); total weight 11, so
	// the outgoing aggregate's cost is 11 + 1 = 12.
	universe := []string{"a1", "a2", "b1", "b2"}
	family := []Subset[string]{
		{Label: 10, Elements: []string{"a1", "a2", "b1"}, Weight: 5},
		{Label: 20, Elements: []string{"b1", "b2"}, Weight: 6},
		{Label: 30, Elements: []string{"a2", "b2"}, Weight: 7},
	}
	c, err := Greedy(universe, family)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Covers() {
		t.Fatalf("uncovered: %v", c.Uncovered)
	}
	if len(c.Chosen) != 2 || c.Chosen[0] != 0 || c.Chosen[1] != 1 {
		t.Fatalf("Chosen = %v, want [0 1]", c.Chosen)
	}
	if c.Weight != 11 {
		t.Fatalf("Weight = %v, want 11", c.Weight)
	}
	if labels := ChosenLabels(family, c); len(labels) != 2 || labels[0] != 10 || labels[1] != 20 {
		t.Fatalf("labels = %v", labels)
	}
}

func TestPaperExampleSourceTransform(t *testing.T) {
	// Figure 4(b): transforming events to sources gives S1*={A,B} w=10/3,
	// S2*={B} w=3, S3*={A,B} w=7; greedy selects only S1*, so neighbors
	// owning S2 and S3 (H and K) are negatively reinforced.
	family := []Subset[string]{
		{Label: 1, Elements: []string{"a1", "a2", "b1"}, Weight: 5}, // from G
		{Label: 2, Elements: []string{"b1", "b2"}, Weight: 6},       // from H
		{Label: 3, Elements: []string{"a2", "b2"}, Weight: 7},       // from K
	}
	src := func(e string) string { return e[:1] } // a1 -> a, b2 -> b
	tf, _ := TransformToSources(nil, nil, family, src)

	if w := tf[0].Weight; math.Abs(w-10.0/3) > 1e-12 {
		t.Errorf("S1* weight = %v, want 10/3", w)
	}
	if w := tf[1].Weight; w != 3 {
		t.Errorf("S2* weight = %v, want 3", w)
	}
	if w := tf[2].Weight; w != 7 {
		t.Errorf("S3* weight = %v, want 7", w)
	}
	// Initial cost ratios must be preserved: 5/3, 3, 3.5.
	ratios := []float64{10.0 / 3 / 2, 3.0 / 1, 7.0 / 2}
	want := []float64{5.0 / 3, 3, 3.5}
	for i := range ratios {
		if math.Abs(ratios[i]-want[i]) > 1e-12 {
			t.Errorf("ratio %d = %v, want %v", i, ratios[i], want[i])
		}
	}

	c, err := Greedy([]string{"a", "b"}, tf)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Chosen) != 1 || c.Chosen[0] != 0 {
		t.Fatalf("Chosen = %v, want [0] (only G's aggregate)", c.Chosen)
	}
}

func TestRedundantSubsetRemoval(t *testing.T) {
	// Greedy picks cheap small sets first, then a big set that makes them
	// redundant. {a} w=1 (ratio 1), {b} w=1, then {a,b,c} w=10 for c.
	// After selection, {a} and {b} are redundant: the final cover is just
	// the big set.
	universe := []string{"a", "b", "c"}
	family := []Subset[string]{
		{Elements: []string{"a"}, Weight: 1},
		{Elements: []string{"b"}, Weight: 1},
		{Elements: []string{"a", "b", "c"}, Weight: 10},
	}
	c, err := Greedy(universe, family)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Covers() {
		t.Fatal("should cover")
	}
	if len(c.Chosen) != 1 || c.Chosen[0] != 2 {
		t.Fatalf("Chosen = %v, want [2] after redundancy removal", c.Chosen)
	}
	if c.Weight != 10 {
		t.Fatalf("Weight = %v, want 10", c.Weight)
	}
}

func TestInfeasibleInstance(t *testing.T) {
	c, err := Greedy([]int{1, 2, 3}, []Subset[int]{{Elements: []int{1}, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Covers() {
		t.Fatal("should not cover")
	}
	if len(c.Uncovered) != 2 {
		t.Fatalf("Uncovered = %v, want 2 elements", c.Uncovered)
	}
	if len(c.Chosen) != 1 {
		t.Fatalf("best-effort cover should still pick the useful subset, got %v", c.Chosen)
	}
}

func TestEmptyUniverse(t *testing.T) {
	c, err := Greedy(nil, []Subset[int]{{Elements: []int{1}, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Covers() || len(c.Chosen) != 0 || c.Weight != 0 {
		t.Fatalf("empty universe: %+v", c)
	}
}

func TestNegativeWeightRejected(t *testing.T) {
	if _, err := Greedy([]int{1}, []Subset[int]{{Elements: []int{1}, Weight: -1}}); err == nil {
		t.Fatal("expected error for negative weight")
	}
	if _, err := Greedy([]int{1}, []Subset[int]{{Elements: []int{1}, Weight: math.NaN()}}); err == nil {
		t.Fatal("expected error for NaN weight")
	}
}

func TestElementsOutsideUniverseIgnored(t *testing.T) {
	// A subset may mention elements not in the universe (e.g. events for a
	// different sink); they must not affect cost ratios.
	universe := []int{1}
	family := []Subset[int]{
		{Elements: []int{1, 99, 98, 97}, Weight: 4}, // effective ratio 4/1
		{Elements: []int{1}, Weight: 3},             // ratio 3
	}
	c, err := Greedy(universe, family)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Chosen) != 1 || c.Chosen[0] != 1 {
		t.Fatalf("Chosen = %v, want [1]", c.Chosen)
	}
}

func TestDuplicateElementsInSubset(t *testing.T) {
	c, err := Greedy([]int{1, 2}, []Subset[int]{
		{Elements: []int{1, 1, 1, 2}, Weight: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Covers() || len(c.Chosen) != 1 {
		t.Fatalf("cover = %+v", c)
	}
}

func TestZeroWeightSubsets(t *testing.T) {
	// Zero weights are legal (ratio 0, chosen first).
	c, err := Greedy([]int{1, 2}, []Subset[int]{
		{Elements: []int{1}, Weight: 0},
		{Elements: []int{1, 2}, Weight: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Covers() {
		t.Fatal("should cover")
	}
	// {1} w=0 picked first, then {1,2}; removal drops the now-redundant {1}.
	if len(c.Chosen) != 1 || c.Chosen[0] != 1 {
		t.Fatalf("Chosen = %v, want [1]", c.Chosen)
	}
}

func TestTransformPreservesLabelsAndDedup(t *testing.T) {
	family := []Subset[int]{
		{Label: 42, Elements: []int{10, 11, 20}, Weight: 6},
	}
	tf, _ := TransformToSources(nil, nil, family, func(e int) int { return e / 10 })
	if tf[0].Label != 42 {
		t.Fatalf("label lost: %+v", tf[0])
	}
	if len(tf[0].Elements) != 2 {
		t.Fatalf("elements = %v, want deduped to 2", tf[0].Elements)
	}
	if want := 6.0 * 2 / 3; tf[0].Weight != want {
		t.Fatalf("weight = %v, want %v", tf[0].Weight, want)
	}
}

func TestTransformEmptySubset(t *testing.T) {
	tf, _ := TransformToSources(nil, nil, []Subset[int]{{Weight: 3}}, func(e int) int { return e })
	if tf[0].Weight != 3 || len(tf[0].Elements) != 0 {
		t.Fatalf("empty subset mishandled: %+v", tf[0])
	}
}

// exhaustiveMin computes the optimal cover weight by brute force.
func exhaustiveMin(universe []int, family []Subset[int]) (float64, bool) {
	n := len(family)
	best, found := math.Inf(1), false
	for mask := 0; mask < 1<<n; mask++ {
		covered := map[int]bool{}
		var w float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			w += family[i].Weight
			for _, e := range family[i].Elements {
				covered[e] = true
			}
		}
		ok := true
		for _, e := range universe {
			if !covered[e] {
				ok = false
				break
			}
		}
		if ok && w < best {
			best, found = w, true
		}
	}
	return best, found
}

// Property: on random feasible instances, the greedy cover is valid and its
// weight is within the ln(d)+1 approximation bound of optimal.
func TestPropertyGreedyWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		nElems := rng.Intn(6) + 1
		nSets := rng.Intn(6) + 1
		universe := make([]int, nElems)
		for i := range universe {
			universe[i] = i
		}
		family := make([]Subset[int], nSets)
		maxSize := 0
		for i := range family {
			size := rng.Intn(nElems) + 1
			elems := rng.Perm(nElems)[:size]
			family[i] = Subset[int]{Elements: elems, Weight: float64(rng.Intn(20)) + 0.5}
			if size > maxSize {
				maxSize = size
			}
		}
		// Force feasibility: last subset covers everything.
		family[nSets-1] = Subset[int]{
			Elements: append([]int(nil), universe...),
			Weight:   float64(rng.Intn(20)) + 0.5,
		}
		if len(family[nSets-1].Elements) > maxSize {
			maxSize = len(family[nSets-1].Elements)
		}

		c, err := Greedy(universe, family)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Covers() {
			t.Fatalf("trial %d: feasible instance not covered", trial)
		}
		// Validity: chosen sets really cover.
		covered := map[int]bool{}
		for _, i := range c.Chosen {
			for _, e := range family[i].Elements {
				covered[e] = true
			}
		}
		for _, e := range universe {
			if !covered[e] {
				t.Fatalf("trial %d: element %d not covered by chosen sets", trial, e)
			}
		}
		opt, ok := exhaustiveMin(universe, family)
		if !ok {
			t.Fatalf("trial %d: brute force found no cover", trial)
		}
		bound := opt * (math.Log(float64(maxSize)) + 1)
		if c.Weight > bound+1e-9 {
			t.Fatalf("trial %d: greedy weight %v exceeds bound %v (opt %v)",
				trial, c.Weight, bound, opt)
		}
	}
}

// Property: the source transform preserves every subset's initial cost
// ratio w/|S|.
func TestPropertyTransformPreservesRatios(t *testing.T) {
	f := func(raw []uint8, w uint8) bool {
		if len(raw) == 0 {
			return true
		}
		elems := make([]int, len(raw))
		for i, r := range raw {
			elems[i] = int(r)
		}
		fam := []Subset[int]{{Elements: elems, Weight: float64(w) + 1}}
		tf, _ := TransformToSources(nil, nil, fam, func(e int) int { return e % 4 })
		origRatio := fam[0].Weight / float64(len(dedup(elems)))
		// |S*| = distinct mapped values.
		mapped := map[int]bool{}
		for _, e := range elems {
			mapped[e%4] = true
		}
		newRatio := tf[0].Weight / float64(len(mapped))
		// Paper preserves w/|S| (with S counted as given, duplicates and
		// all); our Elements may contain duplicates, so compare on the raw
		// definition: w*|S*|/|S| / |S*| == w/|S|.
		rawRatio := fam[0].Weight / float64(len(elems))
		_ = origRatio
		return math.Abs(newRatio-rawRatio) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func dedup(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// referenceGreedy is the map-based heuristic Solver replaced, kept as the
// oracle it must agree with exactly: same Chosen order, same Weight
// (summed in chosen order), same Uncovered (first-occurrence universe
// order, each once) and the same error.
func referenceGreedy[E comparable](universe []E, family []Subset[E]) (Cover[E], error) {
	for i, s := range family {
		if s.Weight < 0 || math.IsNaN(s.Weight) {
			return Cover[E]{}, fmt.Errorf("setcover: subset %d has invalid weight %v", i, s.Weight)
		}
	}

	need := make(map[E]bool, len(universe))
	for _, e := range universe {
		need[e] = true
	}

	members := make([]map[E]bool, len(family))
	for i, s := range family {
		members[i] = make(map[E]bool, len(s.Elements))
		for _, e := range s.Elements {
			if need[e] { // elements outside the universe are irrelevant
				members[i][e] = true
			}
		}
	}

	uncovered := len(need)
	covered := make(map[E]bool, len(need))
	used := make([]bool, len(family))
	var chosen []int

	for uncovered > 0 {
		best, bestRatio, bestGain := -1, math.Inf(1), 0
		for i := range family {
			if used[i] {
				continue
			}
			gain := 0
			for e := range members[i] {
				if !covered[e] {
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
		used[best] = true
		chosen = append(chosen, best)
		for e := range members[best] {
			covered[e] = true
		}
		uncovered -= bestGain
	}

	chosen = referenceRemoveRedundant(chosen, members, covered)

	var weight float64
	for _, i := range chosen {
		weight += family[i].Weight
	}
	var miss []E
	for _, e := range universe {
		if need[e] && !covered[e] {
			miss = append(miss, e)
			need[e] = false // report duplicates once
		}
	}
	return Cover[E]{Chosen: chosen, Weight: weight, Uncovered: miss}, nil
}

func referenceRemoveRedundant[E comparable](chosen []int, members []map[E]bool, covered map[E]bool) []int {
	if len(chosen) <= 1 {
		return chosen
	}
	counts := make(map[E]int, len(covered))
	for _, i := range chosen {
		for e := range members[i] {
			counts[e]++
		}
	}
	keep := make(map[int]bool, len(chosen))
	for _, i := range chosen {
		keep[i] = true
	}
	for k := len(chosen) - 1; k >= 0; k-- {
		i := chosen[k]
		redundant := true
		for e := range members[i] {
			if counts[e] < 2 {
				redundant = false
				break
			}
		}
		if redundant {
			keep[i] = false
			for e := range members[i] {
				counts[e]--
			}
		}
	}
	out := chosen[:0]
	for _, i := range chosen {
		if keep[i] {
			out = append(out, i)
		}
	}
	return out
}

// referenceTransform is the map-based source transform TransformToSources
// replaced.
func referenceTransform[E comparable, S comparable](family []Subset[E], key func(E) S) []Subset[S] {
	out := make([]Subset[S], len(family))
	for i, s := range family {
		seen := make(map[S]bool, len(s.Elements))
		var elems []S
		for _, e := range s.Elements {
			k := key(e)
			if !seen[k] {
				seen[k] = true
				elems = append(elems, k)
			}
		}
		w := s.Weight
		if len(s.Elements) > 0 {
			w = s.Weight * float64(len(elems)) / float64(len(s.Elements))
		}
		out[i] = Subset[S]{Label: s.Label, Elements: elems, Weight: w}
	}
	return out
}

// randomInstance draws a small instance over a tight element domain, so
// duplicates (in subsets and in the universe), elements outside the
// universe, empty subsets, zero weights, tied ratios and infeasible
// universes all come up often. Sizes vary call to call, so a reused Solver
// sees its instances grow and shrink.
func randomInstance(rng *rand.Rand) ([]int, []Subset[int]) {
	maxElems := 1 + rng.Intn(8)
	if rng.Intn(8) == 0 {
		maxElems = 16 + rng.Intn(24)
	}
	domain := maxElems + rng.Intn(4)
	universe := make([]int, rng.Intn(maxElems+1))
	for i := range universe {
		universe[i] = rng.Intn(domain)
	}
	weights := []float64{0, 1, 1, 2, 2, 3, 4, 6, 0.5, 1.5}
	family := make([]Subset[int], rng.Intn(10))
	for i := range family {
		elems := make([]int, rng.Intn(maxElems+1))
		for j := range elems {
			elems[j] = rng.Intn(domain + 3)
		}
		family[i] = Subset[int]{Label: i, Elements: elems, Weight: weights[rng.Intn(len(weights))]}
	}
	return universe, family
}

// TestSolverMatchesReference runs thousands of random instances through one
// reused Solver and requires exactly the reference heuristic's answers.
func TestSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var sv Solver[int]
	var tfBuf []Subset[int]
	var elemBuf []int
	infeasible, multi := 0, 0
	for trial := 0; trial < 6000; trial++ {
		universe, family := randomInstance(rng)
		if len(family) > 0 && rng.Intn(50) == 0 {
			family[rng.Intn(len(family))].Weight = [...]float64{-1, math.NaN()}[rng.Intn(2)]
		}
		want, wantErr := referenceGreedy(universe, family)
		got, gotErr := sv.Solve(universe, family)
		if (wantErr == nil) != (gotErr == nil) ||
			(wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("trial %d: err = %v, want %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !slices.Equal(got.Chosen, want.Chosen) || got.Weight != want.Weight ||
			!slices.Equal(got.Uncovered, want.Uncovered) {
			t.Fatalf("trial %d: universe %v family %+v:\n got %+v\nwant %+v",
				trial, universe, family, got, want)
		}
		if !want.Covers() {
			infeasible++
		}
		if len(want.Chosen) > 1 {
			multi++
		}

		key := func(e int) int { return e % 3 }
		wantTF := referenceTransform(family, key)
		tfBuf, elemBuf = TransformToSources(tfBuf[:0], elemBuf[:0], family, key)
		if len(tfBuf) != len(wantTF) {
			t.Fatalf("trial %d: transform has %d subsets, want %d", trial, len(tfBuf), len(wantTF))
		}
		for i := range wantTF {
			g, w := tfBuf[i], wantTF[i]
			if g.Label != w.Label || g.Weight != w.Weight || !slices.Equal(g.Elements, w.Elements) {
				t.Fatalf("trial %d: transformed subset %d = %+v, want %+v", trial, i, g, w)
			}
		}
	}
	// The draw must actually exercise both infeasible instances and
	// multi-subset covers (where redundancy removal runs).
	if infeasible < 500 || multi < 500 {
		t.Fatalf("weak draw: %d infeasible, %d multi-subset covers", infeasible, multi)
	}
}

// A warmed Solver, and a warmed transform into reused buffers, allocate
// nothing — including on a smaller instance after a larger one.
func TestSolverWarmAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type instance struct {
		universe []int
		family   []Subset[int]
	}
	insts := make([]instance, 20)
	for i := range insts {
		insts[i].universe, insts[i].family = randomInstance(rng)
	}
	var sv Solver[int]
	var tfBuf []Subset[int]
	var elemBuf []int
	key := func(e int) int { return e / 2 }
	run := func() {
		for _, in := range insts {
			if _, err := sv.Solve(in.universe, in.family); err != nil {
				t.Fatal(err)
			}
			tfBuf, elemBuf = TransformToSources(tfBuf[:0], elemBuf[:0], in.family, key)
		}
	}
	run() // warm
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("warmed Solver and transform: %v allocs per pass, want 0", n)
	}
}
