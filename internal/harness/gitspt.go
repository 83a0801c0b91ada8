package harness

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datacentric"
	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// GitSptRow is one density point of the abstract tree comparison.
type GitSptRow struct {
	Nodes   int
	Density stats.Sample
	// Savings holds the GIT-over-SPT transmission savings per source
	// model, as fractions.
	EventRadius stats.Sample
	Random      stats.Sample
	Corner      stats.Sample
}

// GitSptTable is the abstract GIT vs. SPT comparison the paper cites in §1:
// under the event-radius and random-sources models the savings stay modest,
// under the paper's corner placement they are much larger. The comparison
// is graph-level (no kernel runs), so its RunMeta's Events stays zero and
// Runs counts field instances.
type GitSptTable struct{ Sheet[GitSptRow] }

// The workload knobs: sources per instance (random and corner models) and
// the event radius in meters.
const (
	gitSptSources     = 5
	gitSptEventRadius = 40.0
)

var gitSptCols = slices.Concat([]column[GitSptRow]{
	{"nodes", func(r *GitSptRow) any { return r.Nodes }},
	{"density_mean", func(r *GitSptRow) any { return r.Density.Mean() }},
},
	meanCI("event_radius", func(r *GitSptRow) stats.Sample { return r.EventRadius }),
	meanCI("random", func(r *GitSptRow) stats.Sample { return r.Random }),
	meanCI("corner", func(r *GitSptRow) stats.Sample { return r.Corner }))

// GitSpt regenerates the abstract comparison over o.Nodes, averaging
// o.Fields random fields per density.
func GitSpt(o Options) (*GitSptTable, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	var rows []GitSptRow
	side := core.DefaultConfig().FieldSide
	started := time.Now()
	meta := &RunMeta{Figure: "git-spt", Schemes: []string{"event-radius", "random", "corner"}, Xs: o.Nodes,
		Fields: o.Fields, BaseSeed: o.BaseSeed, Duration: o.Duration}
	for _, nodes := range o.Nodes {
		row := GitSptRow{Nodes: nodes}
		for field := 0; field < o.Fields; field++ {
			rng := rand.New(rand.NewSource(seedFor(o.BaseSeed, nodes, field)))
			f, err := topology.Generate(topology.Config{
				Area: geom.Square(0, 0, side), Nodes: nodes, Range: core.RadioRange,
			}, rng)
			if err != nil {
				return nil, err
			}
			corner := side - workload.SinkRegionSide
			sinkPool := f.NodesIn(geom.Square(corner, corner, workload.SinkRegionSide))
			if len(sinkPool) == 0 {
				continue
			}
			sink := sinkPool[rng.Intn(len(sinkPool))]
			meta.Runs++
			row.Density = append(row.Density, f.MeanDegree())

			if srcs := datacentric.EventRadiusSources(f, sink, gitSptEventRadius, rng); len(srcs) >= 2 {
				if c, err := datacentric.Compare(f, sink, srcs); err == nil {
					row.EventRadius = append(row.EventRadius, c.Savings())
				}
			}
			if srcs, err := datacentric.RandomSources(f, sink, gitSptSources, rng); err == nil {
				if c, err := datacentric.Compare(f, sink, srcs); err == nil {
					row.Random = append(row.Random, c.Savings())
				}
			}
			if srcs, err := datacentric.CornerSources(f, sink, gitSptSources,
				workload.SourceRegionSide, rng); err == nil {
				if c, err := datacentric.Compare(f, sink, srcs); err == nil {
					row.Corner = append(row.Corner, c.Savings())
				}
			}
		}
		rows = append(rows, row)
	}
	meta.WallTime = time.Since(started)
	return &GitSptTable{Sheet[GitSptRow]{RunMeta: meta, Rows: rows, cols: gitSptCols}}, nil
}

// Render writes the comparison as an aligned text table of percentage
// savings.
func (t *GitSptTable) Render(w io.Writer) error {
	fmt.Fprintf(w, "== git-spt: GIT transmission savings over SPT (percent, %d sources, event radius %.0f m) ==\n",
		gitSptSources, gitSptEventRadius)
	header := fmt.Sprintf("%8s %9s %14s %14s %14s", "nodes", "density", "event-radius", "random", "corner")
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%8d %9.1f %13.1f%% %13.1f%% %13.1f%%\n",
			r.Nodes, r.Density.Mean(),
			100*r.EventRadius.Mean(), 100*r.Random.Mean(), 100*r.Corner.Mean())
	}
	_, err := fmt.Fprintln(w)
	return err
}
