package channel

import (
	"fmt"
	"sync"
	"testing"
)

// TestWithTreeObserver checks that the layer invokes the observer with
// a channel's first delivery's data tree, with the owning channel
// attached.
func TestWithTreeObserver(t *testing.T) {
	g, _ := buildFig4Graph(t)

	var mu sync.Mutex
	var depths []int
	var channels []string
	l := NewLayer(g, WithTreeObserver(func(c *Channel, tree *DataTree) {
		mu.Lock()
		defer mu.Unlock()
		depths = append(depths, tree.Depth())
		channels = append(channels, c.ID())
	}))
	defer l.Close()

	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(depths) == 0 {
		t.Fatal("tree observer never invoked")
	}
	// The Fig. 4 delivery into the app has depth 3 (WGS84 <- NMEA <- raw).
	max := 0
	for _, d := range depths {
		if d > max {
			max = d
		}
	}
	if max != 3 {
		t.Errorf("max observed depth = %d, want 3", max)
	}
	for _, id := range channels {
		if id == "" {
			t.Error("observer received channel with empty ID")
		}
	}
}

// TestTreeObserverSamplesDeliveries: the tree observer sees deliveries
// 1, 17, 33, ... of each channel, whether or not the channel has
// features, while a Channel Feature still gets a tree at every
// delivery.
func TestTreeObserverSamplesDeliveries(t *testing.T) {
	const n = 40
	g, _ := buildFig2Graph(t, n)
	observed := make(map[string][]any)
	l := NewLayer(g, WithTreeObserver(func(c *Channel, tree *DataTree) {
		observed[c.ID()] = append(observed[c.ID()], tree.Root.Sample.Payload)
	}))
	defer l.Close()
	gpsChan, ok := l.ChannelInto("particle-filter", 0)
	if !ok {
		t.Fatal("no gps channel")
	}
	f := &plainFeature{name: "counter"}
	if err := gpsChan.AttachFeature(f); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}

	if f.count != n {
		t.Errorf("feature applied %d times, want every one of %d deliveries", f.count, n)
	}
	// The sources emit payloads 1..n, one per delivery.
	want := []any{1, 17, 33}
	for _, id := range []string{gpsChan.ID(), "wifi->particle-filter:1"} {
		if got := observed[id]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: observer saw deliveries %v, want %v", id, got, want)
		}
	}
	// The filter delivers once per input, 2n times.
	if got := len(observed["particle-filter->app:0"]); got != (2*n+treeEvery-1)/treeEvery {
		t.Errorf("filter channel: observer saw %d trees for %d deliveries", got, 2*n)
	}
}
