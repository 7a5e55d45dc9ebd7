package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store layout, under one root directory:
//
//	<root>/<dataset>/constraints.cind   the constraint spec text
//	<root>/<dataset>/wal.log            framed append-only delta-batch log
//	<root>/<dataset>/snap-<seq>/        one snapshot: manifest.json + <rel>.csv
//	<root>/.tmp-*  <root>/.trash-*      staging debris, swept at OpenStore
//
// Dataset creation stages the directory under a hidden .tmp-* name and
// renames it into place; removal renames it out to .trash-* before
// deleting. Both renames are atomic, so a crash leaves either the complete
// dataset or none of it — never a half-written one that recovery would
// trip over.
const (
	specFile    = "constraints.cind"
	logFile     = "wal.log"
	snapPrefix  = "snap-"
	tmpPrefix   = ".tmp-"
	trashPrefix = ".trash-"
)

// keepSnapshots is how many snapshots a dataset retains; older ones are
// pruned after each successful snapshot. The WAL itself is never truncated
// (offsets stay stable, and a dataset with every snapshot lost still
// recovers from offset 0), so snapshots are purely a recovery-time
// amortization.
const keepSnapshots = 2

// Store manages the per-dataset durability directories under one root.
type Store struct {
	dir      string
	policy   Policy
	counters Counters
}

// OpenStore opens (creating if absent) the durability root, sweeps staging
// debris left by a crash mid-create or mid-remove, and returns the store.
func OpenStore(dir string, policy Policy) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open store: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) || strings.HasPrefix(e.Name(), trashPrefix) {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("wal: sweep %s: %w", e.Name(), err)
			}
		}
	}
	return &Store{dir: dir, policy: policy}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Policy returns the store's sync policy.
func (s *Store) Policy() Policy { return s.policy }

// Counters returns the store's shared durability counters.
func (s *Store) Counters() *Counters { return &s.counters }

// ValidName reports whether name is usable as a dataset directory: ASCII
// letters, digits, '.', '_', '-', at most 128 bytes, not empty, not "." or
// "..", and not starting with '.' (hidden names are staging debris).
func ValidName(name string) bool {
	if name == "" || len(name) > 128 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Datasets lists the store's dataset names, sorted.
func (s *Store) Datasets() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list datasets: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && ValidName(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Create builds the dataset directory for name holding spec, replacing any
// existing dataset of that name. The directory is staged hidden and
// renamed into place, so a crash mid-create leaves no partial dataset and a
// failed create leaves no orphan directory.
func (s *Store) Create(name, spec string) (err error) {
	if !ValidName(name) {
		return fmt.Errorf("wal: invalid dataset name %q", name)
	}
	tmp, err := os.MkdirTemp(s.dir, tmpPrefix+"create-")
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", name, err)
	}
	defer func() {
		if err != nil {
			os.RemoveAll(tmp)
		}
	}()
	if err := writeFileSync(filepath.Join(tmp, specFile), []byte(spec)); err != nil {
		return fmt.Errorf("wal: create %s: %w", name, err)
	}
	dst := filepath.Join(s.dir, name)
	if fi, statErr := os.Stat(dst); statErr == nil {
		if !fi.IsDir() {
			// A non-dataset squatting on the name is not ours to destroy.
			return fmt.Errorf("wal: create %s: %s exists and is not a dataset directory", name, dst)
		}
		// Replacing: pivot the old dataset out of the way first — rename
		// onto an existing directory is not atomic (or legal) on POSIX.
		trash, terr := os.MkdirTemp(s.dir, trashPrefix)
		if terr != nil {
			return fmt.Errorf("wal: create %s: %w", name, terr)
		}
		old := filepath.Join(trash, "old")
		if err := os.Rename(dst, old); err != nil {
			os.RemoveAll(trash)
			return fmt.Errorf("wal: create %s: displace old: %w", name, err)
		}
		defer os.RemoveAll(trash)
	}
	if err := os.Rename(tmp, dst); err != nil {
		return fmt.Errorf("wal: create %s: %w", name, err)
	}
	return syncDir(s.dir)
}

// Remove deletes the dataset directory atomically: renamed out of the
// namespace first, then reclaimed, so no reader can observe a half-deleted
// dataset and a crash mid-delete leaves only hidden debris for the sweep.
func (s *Store) Remove(name string) error {
	if !ValidName(name) {
		return fmt.Errorf("wal: invalid dataset name %q", name)
	}
	src := filepath.Join(s.dir, name)
	if _, err := os.Stat(src); err != nil {
		return err
	}
	trash, err := os.MkdirTemp(s.dir, trashPrefix)
	if err != nil {
		return fmt.Errorf("wal: remove %s: %w", name, err)
	}
	if err := os.Rename(src, filepath.Join(trash, "old")); err != nil {
		os.RemoveAll(trash)
		return fmt.Errorf("wal: remove %s: %w", name, err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	return os.RemoveAll(trash)
}

// Dataset is an open handle on one dataset's durability directory: the
// spec, the append-position of its WAL, and the records that were intact at
// open time.
type Dataset struct {
	store   *Store
	name    string
	dir     string
	spec    string
	log     *Log
	records []Record
}

// Open opens the named dataset: reads the spec, opens the WAL (truncating
// any torn tail), and returns the handle.
func (s *Store) Open(name string) (*Dataset, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("wal: invalid dataset name %q", name)
	}
	dir := filepath.Join(s.dir, name)
	spec, err := os.ReadFile(filepath.Join(dir, specFile))
	if err != nil {
		return nil, fmt.Errorf("wal: open dataset %s: %w", name, err)
	}
	log, records, err := OpenLog(filepath.Join(dir, logFile), s.policy, &s.counters)
	if err != nil {
		return nil, fmt.Errorf("wal: open dataset %s: %w", name, err)
	}
	return &Dataset{store: s, name: name, dir: dir, spec: string(spec), log: log, records: records}, nil
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.name }

// Spec returns the constraint spec text the dataset was created with.
func (d *Dataset) Spec() string { return d.spec }

// Records returns the WAL records that were intact when the dataset was
// opened, in log order. The caller must not mutate them.
func (d *Dataset) Records() []Record { return d.records }

// Append appends one delta-batch payload to the dataset's WAL under the
// store's sync policy and returns the frame's start offset.
func (d *Dataset) Append(payload []byte) (int64, error) { return d.log.Append(payload) }

// LogSize returns the WAL's current end offset.
func (d *Dataset) LogSize() int64 { return d.log.Size() }

// Sync forces the WAL to stable storage regardless of policy.
func (d *Dataset) Sync() error { return d.log.Sync() }

// Close closes the WAL handle. The dataset directory is untouched.
func (d *Dataset) Close() error { return d.log.Close() }

// writeFileSync writes data to path and fsyncs it — for files whose
// existence gates recovery (specs, manifests).
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
func syncDir(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
