package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"perpos/internal/core"
)

// segmentPaths returns a session's two segment files in dir.
func segmentPaths(dir, id string) [2]string {
	return [2]string{filepath.Join(dir, id+journalExt), filepath.Join(dir, id+snapExt)}
}

// readSeg scans one segment file as recovery does.
func readSeg(t testing.TB, path string) segment {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return scanSegment(data)
}

// frameOf returns the frame writeFrame writes for a record of id with
// the given Seq.
func frameOf(t testing.TB, id string, seq uint64) []byte {
	t.Helper()
	state := testState(id, core.LogicalTime(seq))
	state.Seq = seq
	payload, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkResumes reopens the store in dir and checks that id recovers
// Seq want (0: no state), that the next append gets want+1, lands in
// the segment that held want and is what Load then returns.
func checkResumes(t *testing.T, dir, id string, every int, want uint64) {
	t.Helper()
	paths := segmentPaths(dir, id)
	holder := 0 // the journal wins a tie, as in recovery
	if s := readSeg(t, paths[1]); s.ok && s.newest.Seq == want && readSeg(t, paths[0]).newest.Seq != want {
		holder = 1
	}
	st, err := Open(dir, Options{SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.Load(id)
	switch {
	case want == 0 && !errors.Is(err, ErrNoState):
		t.Fatalf("Load = %+v, %v; want ErrNoState", got, err)
	case want != 0 && (err != nil || got.Seq != want || got.Graph.Nodes[0].Clock != core.LogicalTime(want)):
		t.Fatalf("Load = seq %d, %v; want seq %d", got.Seq, err, want)
	}
	seq, err := st.Append(testState(id, core.LogicalTime(want+1)))
	if err != nil || seq != want+1 {
		t.Fatalf("Append after reopen = %d, %v; want %d", seq, err, want+1)
	}
	if s := readSeg(t, paths[holder]); !s.ok || s.newest.Seq != want+1 {
		t.Fatalf("%s holds seq %d (ok %v), want the resumed append %d", filepath.Base(paths[holder]), s.newest.Seq, s.ok, want+1)
	}
	if got, err := st.Load(id); err != nil || got.Seq != want+1 {
		t.Fatalf("Load after the resumed append = %d, %v; want %d", got.Seq, err, want+1)
	}
}

// TestRecoverAtSwitch covers crashes around a segment switch. The
// store appends records, then the process dies: cleanly after the last
// append's switch, or part-way through writing the next frame, which
// then sits torn at the head of the freshly emptied segment or behind
// the intact frames of the active one.
func TestRecoverAtSwitch(t *testing.T) {
	for _, tc := range []struct {
		name           string
		every, records int
		torn           bool
	}{
		{"died after the switch emptied the other segment", 8, 16, false},
		{"first frame in the fresh segment torn", 8, 16, true},
		{"every append switches", 1, 4, false},
		{"every append switches, next frame torn", 1, 4, true},
		{"torn tail behind intact frames", 8, 12, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{SnapshotEvery: tc.every})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= tc.records; i++ {
				if _, err := st.Append(testState("eve", core.LogicalTime(i))); err != nil {
					t.Fatal(err)
				}
			}
			st.Close()

			// records/every switches so far; a switch leaves the active
			// segment empty.
			paths := segmentPaths(dir, "eve")
			active := (tc.records / tc.every) % 2
			if tc.records%tc.every == 0 {
				if fi, err := os.Stat(paths[active]); err != nil || fi.Size() != 0 {
					t.Fatalf("active segment %s after the switch: %v, %v; want empty", filepath.Base(paths[active]), fi, err)
				}
				if s := readSeg(t, paths[1-active]); s.newest.Seq != uint64(tc.records) {
					t.Fatalf("%s holds seq %d, want %d", filepath.Base(paths[1-active]), s.newest.Seq, tc.records)
				}
			}
			if tc.torn {
				frame := frameOf(t, "eve", uint64(tc.records+1))
				f, err := os.OpenFile(paths[active], os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				_, err = f.Write(frame[:len(frame)-7])
				if err := errors.Join(err, f.Close()); err != nil {
					t.Fatal(err)
				}
			}
			checkResumes(t, dir, "eve", tc.every, uint64(tc.records))
		})
	}
}

// TestLoadsParentLayout reads the layout of stores written before the
// segments switched: a journal of frames and a .snap holding one frame
// that compaction rewrote, the journal truncated after it. The newest
// record loads, appends continue after it, and the active segment's
// frame count carries over, so the segments switch on schedule.
func TestLoadsParentLayout(t *testing.T) {
	for _, tc := range []struct {
		name    string
		snap    uint64
		journal []uint64
	}{
		{"journal after the snapshot", 8, []uint64{9, 10, 11}},
		{"journal just restarted", 8, nil},
		{"crashed between snapshot and restart", 8, []uint64{1, 2, 3, 4, 5, 6, 7, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			paths := segmentPaths(dir, "frank")
			var journal []byte
			for _, seq := range tc.journal {
				journal = append(journal, frameOf(t, "frank", seq)...)
			}
			if err := os.WriteFile(paths[0], journal, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(paths[1], frameOf(t, "frank", tc.snap), 0o644); err != nil {
				t.Fatal(err)
			}
			want := tc.snap
			if n := len(tc.journal); n > 0 && tc.journal[n-1] > want {
				want = tc.journal[n-1]
			}
			checkResumes(t, dir, "frank", 8, want)

			// 12 more appends: at least one more switch, and a segment
			// past SnapshotEvery frames if a count did not carry over.
			st, err := Open(dir, Options{SnapshotEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for i := want + 2; i <= want+13; i++ {
				if seq, err := st.Append(testState("frank", core.LogicalTime(i))); err != nil || seq != i {
					t.Fatalf("Append = %d, %v; want %d", seq, err, i)
				}
			}
			if got, err := st.Load("frank"); err != nil || got.Seq != want+13 {
				t.Fatalf("Load = %d, %v; want %d", got.Seq, err, want+13)
			}
			for _, p := range paths {
				if s := readSeg(t, p); s.frames > 8 {
					t.Errorf("%s holds %d frames, want at most 8", filepath.Base(p), s.frames)
				}
			}
		})
	}
}

// FuzzSegmentsRecover appends records to a store that switches
// segments every `every` appends (1–8), closes it, and cuts the segment
// holding the newest record at an arbitrary offset: the shape a crash
// leaves with O_APPEND writes. Each record's segment and byte range
// follow from OnAppend's byte counts and the switch points. After a
// reopen, Load must return the highest Seq whose frame is still wholly
// on disk in either segment, and Append must continue from it. The
// seeds are TestRecoverAtSwitch's cases.
func FuzzSegmentsRecover(f *testing.F) {
	f.Add(uint8(16), uint8(8), uint32(0))
	f.Add(uint8(17), uint8(8), uint32(7))
	f.Add(uint8(4), uint8(1), uint32(0))
	f.Add(uint8(5), uint8(1), uint32(7))
	f.Add(uint8(13), uint8(8), uint32(7))
	f.Fuzz(func(t *testing.T, records, every uint8, cut uint32) {
		n, per := int(records)%41, int(every)%8
		if per == 0 {
			per = 8
		}
		dir := t.TempDir()
		var sizes []int
		st, err := Open(dir, Options{SnapshotEvery: per, OnAppend: func(_ string, written int, _ time.Duration, _ error) {
			sizes = append(sizes, written)
		}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			if _, err := st.Append(testState("gus", core.LogicalTime(i))); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()

		// Lay the frames out: record i ends at end[i] in segment seg[i],
		// and is on disk while that segment has not been emptied since.
		seg, end, gen := make([]int, n+1), make([]int, n+1), make([]int, n+1)
		var size, emptied [2]int
		active := 0
		for i := 1; i <= n; i++ {
			size[active] += sizes[i-1]
			seg[i], end[i], gen[i] = active, size[active], emptied[active]
			if i%per == 0 {
				active = 1 - active
				size[active] = 0
				emptied[active]++
			}
		}
		paths := segmentPaths(dir, "gus")
		for i, p := range paths {
			var got int64
			if fi, err := os.Stat(p); err == nil {
				got = fi.Size()
			}
			if got != int64(size[i]) {
				t.Fatalf("%s is %d bytes, want %d", filepath.Base(p), got, size[i])
			}
		}
		cutSeg := seg[n]
		keep := size[cutSeg] - int(cut%uint32(size[cutSeg]+1))
		if keep < size[cutSeg] {
			if err := os.Truncate(paths[cutSeg], int64(keep)); err != nil {
				t.Fatal(err)
			}
		}
		var want uint64
		for i := 1; i <= n; i++ {
			if gen[i] == emptied[seg[i]] && (seg[i] != cutSeg || end[i] <= keep) {
				want = uint64(i)
			}
		}
		checkResumes(t, dir, "gus", per, want)
	})
}

// benchState is a checkpoint of about 700 B, the size of fleet-churn's
// GPS session records.
func benchState(id string) SessionState {
	nodes := make([]core.NodeState, 0, 4)
	for i, name := range []string{"gps", "parser", "interpreter", "app"} {
		nodes = append(nodes, core.NodeState{
			ID:        name,
			Clock:     core.LogicalTime(1000 + i),
			Component: json.RawMessage(fmt.Sprintf(`{"lat":56.16%04d,"lon":10.20%04d,"accuracy":3.%d,"hdop":1.%d,"satellites":%d,"fix":"gps","t":"2026-08-05T12:00:00Z"}`, i, i, i, i, 7+i)),
		})
	}
	return SessionState{
		SessionID:    id,
		Taken:        time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		Graph:        core.GraphState{Nodes: nodes},
		Availability: 1,
	}
}

// BenchmarkStoreAppend appends records of about 700 B for 256 sessions
// in turn, each switching segments every 8 appends, as fleet-churn's
// store does. One op is one append.
func BenchmarkStoreAppend(b *testing.B) {
	st, err := Open(b.TempDir(), Options{SnapshotEvery: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	states := make([]SessionState, 256)
	for i := range states {
		states[i] = benchState(fmt.Sprintf("target-%03d", i))
	}
	for i := 0; i < 8*len(states); i++ { // every session's first cycle
		if _, err := st.Append(states[i%len(states)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Append(states[i%len(states)]); err != nil {
			b.Fatal(err)
		}
	}
}
