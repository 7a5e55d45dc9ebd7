package wal

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	cind "cind"

	"cind/internal/types"
)

// These tests pin the error-path behavior of the durability layer: every
// failure must leave the on-disk state either fully valid or cleanly
// absent — no half-written snapshot, no half-frame in the log, no debris
// that the next boot would misread.

func TestSyncModeString(t *testing.T) {
	for mode, want := range map[SyncMode]string{
		SyncAlways: "always", SyncInterval: "interval", SyncOff: "off", SyncMode(9): "syncmode(9)",
	} {
		if got := mode.String(); got != want {
			t.Errorf("SyncMode(%d).String() = %q, want %q", mode, got, want)
		}
	}
}

func TestStoreAccessors(t *testing.T) {
	dir := t.TempDir()
	p := Policy{Mode: SyncOff}
	s, err := OpenStore(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dir() != dir {
		t.Errorf("Dir() = %q, want %q", s.Dir(), dir)
	}
	if s.Policy() != p {
		t.Errorf("Policy() = %+v, want %+v", s.Policy(), p)
	}
}

func TestOpenStoreOverFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "squatter")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(path, Policy{}); err == nil {
		t.Fatal("OpenStore over a plain file succeeded")
	}
}

func TestOpenLogMissingParent(t *testing.T) {
	if _, _, err := OpenLog(filepath.Join(t.TempDir(), "no", "such", "dir", "wal.log"), Policy{}, nil); err == nil {
		t.Fatal("OpenLog under a missing parent succeeded")
	}
}

// TestAppendOversizedLeavesLogValid rejects a record above MaxRecord and
// requires the log to stay appendable and fully valid afterwards: the
// failed append must not leave a partial frame for later appends to bury.
func TestAppendOversizedLeavesLogValid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	log, _, err := OpenLog(path, Policy{Mode: SyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if _, err := log.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversized append succeeded")
	}
	if _, err := log.Append([]byte("after")); err != nil {
		t.Fatalf("append after rejected record: %v", err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records, validEnd := Decode(raw)
	if validEnd != int64(len(raw)) || len(records) != 2 ||
		string(records[0].Payload) != "good" || string(records[1].Payload) != "after" {
		t.Fatalf("log after rejected append: %d records, validEnd %d of %d", len(records), validEnd, len(raw))
	}
}

// TestCloseFlushesIntervalDirt pins that Close fsyncs appends an interval
// policy had not flushed yet, and that Close and Sync are idempotent on a
// closed log.
func TestCloseFlushesIntervalDirt(t *testing.T) {
	var c Counters
	log, _, err := OpenLog(filepath.Join(t.TempDir(), "wal.log"), Policy{Mode: SyncInterval, Interval: DefaultSyncInterval}, &c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.Fsyncs.Load(); got != 1 {
		t.Fatalf("Close of a dirty interval log made %d fsyncs, want 1", got)
	}
	if err := log.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := log.Sync(); err != nil {
		t.Fatalf("Sync after Close: %v", err)
	}
}

func TestRemoveInvalidAndMissing(t *testing.T) {
	s, err := OpenStore(t.TempDir(), Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("../escape"); err == nil {
		t.Fatal("Remove of an invalid name succeeded")
	}
	if err := s.Remove("absent"); err == nil {
		t.Fatal("Remove of a missing dataset succeeded")
	}
}

// TestSnapshotNonGroundTupleRejected: a chase variable in the instance is a
// server bug; the snapshot must fail loudly and leave no snap directory and
// no staging debris behind.
func TestSnapshotNonGroundTupleRejected(t *testing.T) {
	s, err := OpenStore(t.TempDir(), Policy{})
	if err != nil {
		t.Fatal(err)
	}
	set := testSet(t)
	if err := s.Create("ds", testSpec); err != nil {
		t.Fatal(err)
	}
	d, err := s.Open("ds")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	db := cind.NewDatabase(set.Schema())
	db.Instance("T").Insert(cind.Tuple{types.C("a"), types.NewVar(1, "v1")})
	if err := d.WriteSnapshot(db, 0); err == nil || !strings.Contains(err.Error(), "non-ground") {
		t.Fatalf("WriteSnapshot of a non-ground instance: %v, want non-ground error", err)
	}
	entries, err := os.ReadDir(filepath.Join(s.Dir(), "ds"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), snapPrefix) || strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("failed snapshot left %s behind", e.Name())
		}
	}
}

// TestLoadLatestSnapshotSkipsBrokenVariants walks the fallback chain: a
// newest snapshot with a corrupt manifest, then one with a missing CSV,
// then one whose CSV has the wrong arity, must each be skipped in favor of
// the oldest — intact — snapshot.
func TestLoadLatestSnapshotSkipsBrokenVariants(t *testing.T) {
	s, err := OpenStore(t.TempDir(), Policy{})
	if err != nil {
		t.Fatal(err)
	}
	set := testSet(t)
	if err := s.Create("ds", testSpec); err != nil {
		t.Fatal(err)
	}
	d, err := s.Open("ds")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	db := cind.NewDatabase(set.Schema())
	db.Instance("T").Insert(cind.Consts("k", "v"))
	if err := d.WriteSnapshot(db, 7); err != nil { // snap-1, the good one
		t.Fatal(err)
	}

	mk := func(seq int, manifest string, files map[string]string) {
		dir := filepath.Join(s.Dir(), "ds", snapPrefix+strconv.Itoa(seq))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		for name, content := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	mk(2, `{"seq":2,"wal_offset":9,"relations":["T"]}`, nil)                                 // missing T.csv
	mk(3, `{"seq":3,"wal_offset":11,"relations":["T"]}`, map[string]string{"T.csv": "a\nx"}) // wrong arity
	mk(4, `{broken json`, nil)                                                               // corrupt manifest

	got, off, err := d.LoadLatestSnapshot(func() *cind.Database { return cind.NewDatabase(set.Schema()) })
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || off != 7 {
		t.Fatalf("fallback loaded offset %d (db nil: %v), want the intact snap-1 at offset 7", off, got == nil)
	}
	if got.Instance("T").Len() != 1 {
		t.Fatalf("fallback snapshot holds %d tuples, want 1", got.Instance("T").Len())
	}
}

func TestWriteRelationCSVMissingParent(t *testing.T) {
	set := testSet(t)
	db := cind.NewDatabase(set.Schema())
	if err := writeRelationCSV(filepath.Join(t.TempDir(), "no", "T.csv"), db, "T"); err == nil {
		t.Fatal("writeRelationCSV under a missing parent succeeded")
	}
}

// TestIntervalFlushAfterManualSync: a manual Sync clears the dirty flag, so
// the already-armed interval timer must fire as a no-op, not double-count
// an fsync.
func TestIntervalFlushAfterManualSync(t *testing.T) {
	var c Counters
	log, _, err := OpenLog(filepath.Join(t.TempDir(), "wal.log"), Policy{Mode: SyncInterval, Interval: 20 * time.Millisecond}, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if _, err := log.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // let the armed timer fire on a clean log
	if got := c.Fsyncs.Load(); got != 1 {
		t.Fatalf("%d fsyncs after manual Sync + timer fire, want 1", got)
	}
}

func TestWriteFileSyncMissingParent(t *testing.T) {
	if err := writeFileSync(filepath.Join(t.TempDir(), "no", "file"), []byte("x")); err == nil {
		t.Fatal("writeFileSync under a missing parent succeeded")
	}
}

func TestSyncDirMissing(t *testing.T) {
	if err := syncDir(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("syncDir of a missing directory succeeded")
	}
}
