// Treequality: how good is the greedy incremental tree, really? This
// example builds the three trees of the paper's §1 argument on one field —
// the shortest-path tree (SPT, what opportunistic path selection
// approximates), the greedy incremental tree (GIT, what greedy aggregation
// constructs), and the exact optimal Steiner tree (Dreyfus–Wagner DP) —
// and draws the GIT on the field.
//
//	go run ./examples/treequality
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/datacentric"
	"repro/internal/geom"
	"repro/internal/plot"
	"repro/internal/topology"
)

func main() {
	rng := rand.New(rand.NewSource(4))
	field, err := topology.Generate(topology.Config{
		Area: geom.Square(0, 0, 200), Nodes: 250, Range: 40,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's placement: sink top-right, five sources bottom-left.
	sinkPool := field.NodesIn(geom.Square(164, 164, 36))
	if len(sinkPool) == 0 {
		log.Fatal("no node in the sink corner; try another seed")
	}
	sink := sinkPool[0]
	sources, err := datacentric.CornerSources(field, sink, 5, 80, rng)
	if err != nil {
		log.Fatal(err)
	}

	spt, err := datacentric.SPT(field, sink, sources)
	if err != nil {
		log.Fatal(err)
	}
	git, err := datacentric.GIT(field, sink, sources)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := datacentric.SteinerOpt(field, sink, sources)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("tree cost in transmissions per event round (250 nodes, density %.1f):\n\n", field.MeanDegree())
	fmt.Printf("  shortest-path tree (SPT)       %3d\n", spt.Transmissions())
	fmt.Printf("  greedy incremental tree (GIT)  %3d   (%.0f%% below SPT)\n",
		git.Transmissions(), 100*(1-float64(git.Transmissions())/float64(spt.Transmissions())))
	fmt.Printf("  optimal Steiner tree           %3d   (GIT is %.2fx optimal)\n\n",
		opt, float64(git.Transmissions())/float64(opt))

	for _, drawn := range []struct {
		name string
		tree datacentric.Tree
	}{{"GIT", git}, {"SPT", spt}} {
		m := plot.FieldMap{
			Title: drawn.name + " on the field:",
			MinX:  0, MinY: 0, MaxX: 200, MaxY: 200,
			Legend: map[rune]string{'S': "sink", 'o': "source", '*': "tree node", '.': "idle"},
			Width:  60, Height: 20,
		}
		isSource := map[topology.NodeID]bool{}
		for _, s := range sources {
			isSource[s] = true
		}
		for i := 0; i < field.Len(); i++ {
			id := topology.NodeID(i)
			p := field.Position(id)
			nd := plot.FieldNode{X: p.X, Y: p.Y, Mark: '.'}
			switch {
			case id == sink:
				nd.Mark = 'S'
			case isSource[id]:
				nd.Mark = 'o'
			case drawn.tree.Contains(id):
				nd.Mark = '*'
			}
			m.Nodes = append(m.Nodes, nd)
		}
		if err := m.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	fmt.Println("Note how the GIT funnels all five sources onto one trunk early,")
	fmt.Println("while the SPT's paths run separately until they happen to meet.")
}
