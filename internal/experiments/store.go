package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"falseshare/internal/artifact"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/obs"
)

// Store is the cell store behind fsexp -resume: one entry per
// successful cell, addressed by hash(code identity ‖ cell
// fingerprint). The fingerprint covers everything the result depends
// on — program source, cell configuration, scale, budget, -verify,
// -diag — and the code identity covers the code itself, so a cell is
// reused only when it is the cell this run would compute. A run
// interrupted at any point loses at most its in-flight cells; the
// next run over the same directory replays what is stored and
// computes the rest, whether its cells run in process or across the
// fabric's workers.
//
// An entry stores the result JSON, the span subtree the original
// execution recorded and the -verify/-diag events recorded under the
// cell's key, so a replayed cell reconstructs the same manifest and
// the same summaries as a computed one.
//
// Storage is the artifact package's crash-safe store: atomic writes,
// and a recovery scan at open that drops torn or corrupt entries (and
// counts them — visible in the fabric summary line).
type Store struct {
	st *artifact.Store
	// Schema is the code identity keying every entry (see
	// codeIdentity). Exposed so tests can prove a code change forces
	// recomputation.
	Schema string
}

// storedCell is one entry's content.
type storedCell struct {
	Key    string          `json:"key"`
	Data   json.RawMessage `json:"data"`
	Spans  []*obs.Span     `json:"spans,omitempty"`
	Events CellEvents      `json:"events"`
}

// codeIdentity names the code that computes cells:
// "falseshare/cell/" + the sha256 of the running executable. Any
// rebuild that changes the binary invalidates every stored cell at
// once; spawned fabric workers run the same executable, so they share
// the identity. Computed once, and only when a store is opened.
var codeIdentity = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return "falseshare/cell/" + hex.EncodeToString(h.Sum(nil)), nil
})

// OpenStore opens (creating as needed) the cell store rooted at dir.
// Opening runs the store's recovery scan; torn or corrupt entries are
// dropped and counted.
func OpenStore(dir string) (*Store, error) {
	schema, err := codeIdentity()
	if err != nil {
		return nil, fmt.Errorf("experiments: cell store: code identity: %w", err)
	}
	st, err := artifact.Open(dir, artifact.Options{FaultPoint: "cell.store"})
	if err != nil {
		return nil, fmt.Errorf("experiments: cell store: %w", err)
	}
	return &Store{st: st, Schema: schema}, nil
}

// Counters snapshots the store's activity since open — hits, misses,
// corrupt entries dropped, entries present. nil-safe.
func (s *Store) Counters() artifact.Counters {
	if s == nil {
		return artifact.Counters{}
	}
	return s.st.Counters()
}

// load returns the cell stored under fingerprint with its result
// decoded into v. A missing entry, an unfingerprinted cell and an
// entry that no longer decodes into v are all misses: the cost of a
// miss is one recomputation. nil-safe.
func (s *Store) load(fingerprint string, v any) (*storedCell, bool) {
	if s == nil || fingerprint == "" {
		return nil, false
	}
	b, ok := s.st.Get(s.Schema, fingerprint)
	if !ok {
		return nil, false
	}
	var c storedCell
	if json.Unmarshal(b, &c) != nil || json.Unmarshal(c.Data, v) != nil {
		return nil, false
	}
	return &c, true
}

// commit stores one successful cell. A failed commit is logged, not
// returned: the result is valid either way, and a lost entry only
// costs a recomputation on resume.
func (s *Store) commit(ctx context.Context, fingerprint, key string, v any, spans []*obs.Span, ev CellEvents) {
	data, err := json.Marshal(v)
	if err == nil {
		var b []byte
		b, err = json.Marshal(&storedCell{Key: key, Data: data, Spans: spans, Events: ev})
		if err == nil {
			err = s.st.Put(ctx, s.Schema, fingerprint, b)
		}
	}
	if err != nil {
		obs.Logf("experiments: cell store: commit %s: %v", key, err)
	}
}

// storeJobs gives every fingerprinted job checkpoint/resume through
// the store. On a hit the stored result is returned without running
// the job: its span subtree is adopted into the job's recorder and its
// events are re-recorded, so the manifest and the -verify/-diag
// summaries cannot tell. On a miss the job runs, and a successful
// result is committed with the spans and the events it recorded under
// its key (so concurrent jobs' events never mix). Unfingerprinted jobs
// (compilecost's timings) and every job under a nil store pass through
// untouched.
//
// T must round-trip through encoding/json: the replayed value is the
// decoded entry, not the original in-memory one.
func storeJobs[T any](s *Store, jobs []pool.Job[T]) []pool.Job[T] {
	if s == nil {
		return jobs
	}
	out := make([]pool.Job[T], len(jobs))
	for i, job := range jobs {
		out[i] = job
		if job.Fingerprint == "" {
			continue
		}
		run, key, fp := job.Run, job.Key, job.Fingerprint
		out[i].Run = func(ctx context.Context) (T, error) {
			var hit T
			if c, ok := s.load(fp, &hit); ok {
				obs.Current().Adopt(c.Spans)
				AdoptEvents(c.Events)
				return hit, nil
			}
			mark := MarkEvents()
			v, err := run(ctx)
			if err == nil {
				s.commit(ctx, fp, key, v, obs.Current().Spans(), EventsSince(mark, key))
			}
			return v, err
		}
	}
	return out
}
