package store

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/darco"
	"repro/internal/timing"
)

// noCosim is DefaultConfig with co-simulation off.
func noCosim() darco.Config {
	cfg := darco.DefaultConfig()
	cfg.TOL.Cosim = false
	return cfg
}

// tinyRecord simulates one small benchmark and wraps it in the Record
// interchange form, returning the memo key it files under.
func tinyRecord(t *testing.T) (string, *darco.Record) {
	t.Helper()
	job, err := darco.WithWorkload("synthetic:462.libquantum", 0.1, noCosim())
	if err != nil {
		t.Fatal(err)
	}
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	res, err := darco.NewSession(darco.WithWorkers(1)).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	rec := darco.NewRecord(job.Name, "", job.Scale, timing.ModeShared, res, nil)
	return key, &rec
}

// TestPutGetRoundTrip persists one real simulation result, reopens the
// store (the process-restart equivalent) and requires the fetched
// Record to be byte-identical to what was stored.
func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, rec := tinyRecord(t)
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, rec); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh Store over the same directory.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok, err := st2.GetRaw(key)
	if err != nil || !ok {
		t.Fatalf("GetRaw after reopen: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("stored record bytes differ after reopen:\n got %d bytes\nwant %d bytes", len(raw), len(want))
	}
	got, ok, err := st2.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after reopen: ok=%v err=%v", ok, err)
	}
	reraw, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reraw, want) {
		t.Fatalf("decoded record re-marshals to different bytes (Result JSON no longer round-trips exactly)")
	}

	// No leftover temporaries from the atomic write path.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			t.Errorf("leftover temporary %s after Put", de.Name())
		}
	}
}

// TestCorruptEntryTolerated damages one of two entries and requires
// the damage to be contained: Get on the bad key misses, Get on the
// good key still hits, and List skips the bad file instead of failing.
func TestCorruptEntryTolerated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := darco.Record{Benchmark: "good", Mode: "shared"}
	bad := darco.Record{Benchmark: "bad", Mode: "shared"}
	if err := st.Put("good-key", &rec); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("bad-key", &bad); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path("bad-key"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An unrelated junk file in the directory must also be ignored.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok, err := st.Get("bad-key"); err != nil || ok {
		t.Fatalf("corrupt entry: got ok=%v err=%v, want miss without error", ok, err)
	}
	if got, ok, err := st.Get("good-key"); err != nil || !ok || got.Benchmark != "good" {
		t.Fatalf("good entry after corruption elsewhere: ok=%v err=%v rec=%+v", ok, err, got)
	}
	metas, err := st.List()
	if err != nil {
		t.Fatalf("List with corrupt entry present: %v", err)
	}
	if len(metas) != 1 || metas[0].Benchmark != "good" {
		t.Fatalf("List = %+v, want exactly the good entry", metas)
	}
	if metas[0].Addr != Addr("good-key") {
		t.Fatalf("List addr = %s, want %s", metas[0].Addr, Addr("good-key"))
	}
}

// TestConcurrentPutSameKey hammers one key from many goroutines; every
// Put must succeed and the surviving entry must be one complete,
// decodable record (atomic rename: last writer wins, never a torn
// file).
func TestConcurrentPutSameKey(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := darco.Record{Benchmark: "462.libquantum", Mode: "shared", Scale: 0.1}
			errs[i] = st.Put("contended-key", &rec)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	got, ok, err := st.Get("contended-key")
	if err != nil || !ok {
		t.Fatalf("Get after concurrent Puts: ok=%v err=%v", ok, err)
	}
	if got.Benchmark != "462.libquantum" || got.Scale != 0.1 {
		t.Fatalf("surviving record = %+v, want a complete writer record", got)
	}
}

// TestSessionStoreHitSurvivesRestart is the controller-level
// round-trip: a Session with a store runs once, a second Session over
// the same directory (a restarted replica) serves the identical job
// from the store — EventCached, no program build, byte-identical
// record.
func TestSessionStoreHitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	job, err := darco.WithWorkload("synthetic:429.mcf", 0.1, noCosim())
	if err != nil {
		t.Fatal(err)
	}
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}

	st1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := darco.NewSession(darco.WithStore(st1)).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	raw1, ok, err := st1.GetRaw(key)
	if err != nil || !ok {
		t.Fatalf("store after first run: ok=%v err=%v", ok, err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []darco.EventKind
	sess2 := darco.NewSession(darco.WithStore(st2), darco.WithEvents(func(ev darco.Event) {
		kinds = append(kinds, ev.Kind)
	}))
	res2, err := sess2.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 1 || kinds[0] != darco.EventCached {
		t.Fatalf("restart events = %v, want exactly [cached]", kinds)
	}
	if res1.Timing.Cycles != res2.Timing.Cycles || res1.GuestDyn() != res2.GuestDyn() {
		t.Fatalf("restart result differs: %d/%d cycles, %d/%d guest insts",
			res1.Timing.Cycles, res2.Timing.Cycles, res1.GuestDyn(), res2.GuestDyn())
	}
	rec2 := darco.NewRecord(job.Name, job.Program.Meta().Suite, job.Scale, timing.ModeShared, res2, nil)
	raw2, err := json.Marshal(&rec2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("record rebuilt from the store-served result is not byte-identical to the persisted record")
	}
}
