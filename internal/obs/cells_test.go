package obs

import (
	"strings"
	"sync"
	"testing"
	"unsafe"

	"perpos/internal/core"
)

// tapN taps node n times through o.
func tapN(o *GraphObserver, node string, n int) {
	for i := 0; i < n; i++ {
		o.Tap(node, core.Sample{})
	}
}

// TestEmissionCellsSumAndFold: observers count into their own cells
// while the hub is read and other observers close; every read sees
// each node's count exactly once, whether it still sits in a live cell
// or was folded into the hub, and a closed observer leaves no cell.
func TestEmissionCellsSumAndFold(t *testing.T) {
	m := New()
	const observers, taps = 6, 500
	nodes := []string{"gps", "parser", "interpreter"}

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Counts only grow: a fold that lost or doubled a cell's count
			// would show as a drop or a jump past the final total.
			n := m.SpansEmitted()
			if n < last {
				t.Errorf("spans_emitted went back from %d to %d", last, n)
			}
			if max := uint64(observers * taps * len(nodes)); n > max {
				t.Errorf("spans_emitted = %d, above the %d taps made", n, max)
			}
			last = n
			var b strings.Builder
			WritePrometheus(&b, m)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < observers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := NewGraphObserver(m, nil)
			for k := 0; k < taps; k++ {
				for _, id := range nodes {
					o.Tap(id, core.Sample{})
				}
			}
			if i%2 == 0 {
				o.Close()
				o.Close() // idempotent: folds once
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	for _, id := range nodes {
		if got := m.Emissions(id); got != observers*taps {
			t.Errorf("%s emissions = %d, want %d", id, got, observers*taps)
		}
	}
	if got, want := m.SpansEmitted(), uint64(observers*taps*len(nodes)); got != want {
		t.Errorf("spans_emitted = %d, want %d", got, want)
	}
	// Half the observers are still open: three cells each.
	if got := m.LiveCells(); got != observers/2*len(nodes) {
		t.Errorf("live cells = %d, want %d", got, observers/2*len(nodes))
	}
}

// TestEmissionCellPadding pins the cell to one 64-byte cache line.
func TestEmissionCellPadding(t *testing.T) {
	if got := unsafe.Sizeof(emissionCell{}); got != 64 {
		t.Errorf("emission cell is %d bytes, want 64", got)
	}
}
