package harness

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// cell is one simulation of a figure: where it sits (ledger key, progress
// line, flight-dump name), what it runs, and the row its output feeds.
type cell struct {
	id  cellID
	cfg core.Config
	row int
}

// engine runs the cells of one figure. It holds what a figure opens once:
// the validated Options, the ledger and one progress tracker sized for
// every cell the figure will run.
type engine struct {
	o   Options
	led *Ledger
	tr  *progressTracker
	// rungs runs one cell at a time and settles the heap (obs.SettleHeap)
	// before each cell whose x differs from the previous cell's, so every
	// heap reading is its own rung's footprint.
	rungs bool
}

// startEngine validates o, opens its ledger and sizes the progress tracker
// for total cells.
func startEngine(o Options, total int) (*engine, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	led, err := openLedger(o)
	if err != nil {
		return nil, err
	}
	return &engine{o: o, led: led, tr: newProgressTracker(total)}, nil
}

// close closes the ledger. Its fsync is what makes a finished sweep
// durable, so its error replaces *err when the figure otherwise succeeded;
// an earlier error wins.
func (e *engine) close(err *error) {
	if cerr := e.led.Close(); cerr != nil && *err == nil {
		*err = cerr
	}
}

// run executes cells through runCell on at most o.workers() goroutines,
// started in cell order, and returns their outputs in that order. The
// first failing cell in that order names the error by figure, series, x
// and field.
func (e *engine) run(cells []cell) ([]LedgerOutput, error) {
	workers := e.o.workers()
	if e.rungs {
		workers = 1
	}
	next := make(chan int, len(cells))
	for i := range cells {
		next <- i
	}
	close(next)
	outs := make([]LedgerOutput, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := cells[i]
				if e.rungs && (i == 0 || cells[i-1].id.x != c.id.x) {
					obs.SettleHeap()
				}
				if e.o.Telemetry {
					c.cfg.Telemetry = &obs.Config{}
				}
				outs[i], errs[i] = runCell(e.o, e.led, e.tr, c.id, c.cfg)
				if errs[i] == nil && c.cfg.Chaos != nil && outs[i].Chaos == nil {
					errs[i] = errors.New("no chaos report")
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			id := cells[i].id
			return nil, fmt.Errorf("harness: %s %s x=%d field=%d: %w", id.figure, id.series, id.x, id.field, err)
		}
	}
	return outs, nil
}

// fold completes meta (which names the figure) from the outputs, merging
// them in order and handing each index to absorb for its row. Folding in
// cell order, whatever order the workers finished in, keeps every float
// sum — the rows' sample means, the merged telemetry — byte-stable.
func fold(o Options, meta RunMeta, outs []LedgerOutput, absorb func(i int)) (*RunMeta, error) {
	meta.Fields, meta.BaseSeed, meta.Duration = o.Fields, o.BaseSeed, o.Duration
	var agg *obs.Registry
	if o.Telemetry {
		agg = obs.NewRegistry()
	}
	for i, lo := range outs {
		meta.Runs++
		meta.WallTime += lo.Kernel.WallTime
		meta.Events += lo.Kernel.Events
		if err := agg.Absorb(lo.Telemetry); err != nil {
			return nil, fmt.Errorf("harness: merge telemetry: %w", err)
		}
		absorb(i)
	}
	if agg != nil {
		meta.Telemetry = agg.Snapshot()
	}
	return &meta, nil
}

// figure is one kernel figure as data: the RunMeta that names it, its rows
// in CSV order, the columns its CSV writes, and the configuration of each
// row's run on each field. Its cells are the rows × o.Fields, row-major.
type figure struct {
	meta  RunMeta
	rows  []Row
	cols  []column[Row]
	cfg   func(row, field int) core.Config
	rungs bool // see engine.rungs
}

// run regenerates the figure: it runs every cell on the engine and folds
// each output into its row and the figure's RunMeta.
func (f figure) run(o Options) (_ Sheet[Row], err error) {
	e, err := startEngine(o, len(f.rows)*o.Fields)
	if err != nil {
		return Sheet[Row]{}, err
	}
	defer e.close(&err)
	e.rungs = f.rungs
	var cells []cell
	for ri, r := range f.rows {
		for field := 0; field < o.Fields; field++ {
			cells = append(cells, cell{
				id:  cellID{figure: f.meta.Figure, series: r.Series, x: r.X, field: field},
				cfg: f.cfg(ri, field),
				row: ri,
			})
		}
	}
	outs, err := e.run(cells)
	if err != nil {
		return Sheet[Row]{}, err
	}
	meta, err := fold(o, f.meta, outs, func(i int) { f.rows[cells[i].row].absorb(outs[i]) })
	if err != nil {
		return Sheet[Row]{}, err
	}
	return Sheet[Row]{RunMeta: meta, Rows: f.rows, cols: f.cols}, nil
}
