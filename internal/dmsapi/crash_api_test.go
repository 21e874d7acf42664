package dmsapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/docstore"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/fsx"
	"fairdms/internal/wal"
)

// The crash tests run one small workload over a WAL-durable store,
//
//	bootstrap fit → ingest → POST /v1/models A → a /v1/train job
//	registering B → ingest → compact → POST /v1/models C,
//
// cut it short, reopen the directory as a restarted daemon would, and hold
// what comes back to the meaning of the state, not only to its documents:
// the fit, the samples and the zoo must be one consistent point of the
// workload.

const (
	crashFeatures = 4
	crashBatch    = 6 // samples per ingest
	crashK        = 2
)

var crashModelOrder = []string{"A", "B", "C"}

func crashSamples(seed int64) []*codec.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*codec.Sample, crashBatch)
	for i := range out {
		vals := make([]float64, crashFeatures)
		sum := 0.0
		for j := range vals {
			vals[j] = rng.Float64() + float64(i%crashK) // two separable groups
			sum += vals[j]
		}
		out[i] = codec.SampleFromFloats(vals, []int{crashFeatures}, codec.F64, []float64{sum / crashFeatures})
	}
	return out
}

// crashStack is one "process": the durable store and the services over it.
type crashStack struct {
	durable *docstore.DurableStore
	svc     *fairds.Service
	zoo     *fairms.Zoo
	srv     *Server
}

// openCrashStack opens the directory the way cmd/dmsd does: store, data
// service, zoo. Any error is the caller's to judge — during the faulted run
// it is the injected crash, on the reopen it is a failed test.
func openCrashStack(dir string, policy wal.Policy, fs fsx.FS) (*crashStack, error) {
	durable, err := docstore.OpenDurable(docstore.DurableOptions{Dir: dir, Policy: policy, FS: fs})
	if err != nil {
		return nil, err
	}
	st := &crashStack{durable: durable}
	col := durable.Collection("peaks")
	if st.svc, err = fairds.New(idEmbedder{dim: 2}, col, fairds.Config{Seed: 1}); err != nil {
		durable.Abort()
		return nil, err
	}
	if st.zoo, err = fairms.OpenZoo(col.Sibling(".zoo")); err != nil {
		durable.Abort()
		return nil, err
	}
	st.srv, err = NewServer(ServerConfig{DS: st.svc, Zoo: st.zoo, BootstrapK: crashK, TrainWorkers: 1})
	if err != nil {
		durable.Abort()
		return nil, err
	}
	return st, nil
}

// kill stops the stack as a dying process would: nothing flushed, nothing
// compacted.
func (st *crashStack) kill() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st.srv.Shutdown(ctx)
	st.durable.Abort()
}

// post sends one JSON request through the server's own handler (no
// listener: thousands of stacks are opened) and reports whether it was
// answered 200.
func (st *crashStack) post(path string, in, out any) bool {
	body, err := json.Marshal(in)
	if err != nil {
		panic(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	st.srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return false
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			panic(err)
		}
	}
	return true
}

// crashWorkload runs the workload until it ends or a step fails (the
// injected crash), and returns how many ingests were acknowledged. Which
// models were acknowledged is what the live zoo lists: Add publishes only
// after its document is committed.
func crashWorkload(st *crashStack) (ingests int) {
	uniform := []float64{0.5, 0.5}
	state, err := dummyState(1).Bytes()
	if err != nil {
		panic(err)
	}
	ingest := func(seed int64, tag string) bool {
		ok := st.post(PathIngest, IngestRequest{Dataset: tag, Samples: FromCodecSlice(crashSamples(seed))}, nil)
		if ok {
			ingests++
		}
		return ok
	}
	if !ingest(1, "s0") { // the bootstrap fit rides the first ingest
		return
	}
	if !st.post(PathModels, AddModelRequest{ID: "A", PDF: uniform, State: state}, nil) {
		return
	}
	var job TrainJob
	if !st.post(PathTrain, TrainRequest{Dataset: "s0", Model: "mlp", Hidden: 2, Epochs: 1, Seed: 3, ModelID: "B"}, &job) {
		return
	}
	for {
		js, err := st.srv.Trainer().Get(job.ID)
		if err != nil {
			panic(err)
		}
		if js.State.Terminal() {
			if js.State != "done" {
				return
			}
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	if !ingest(2, "s1") {
		return
	}
	if st.durable.Compact() != nil {
		return
	}
	st.post(PathModels, AddModelRequest{ID: "C", PDF: uniform, State: state}, nil)
	return
}

// crashReference is the fit a fault-free run of the workload ends on. The
// fit is a function of the seed and the first batch, so every run that gets
// as far as fitting must land on exactly this one.
func crashReference(t *testing.T) (fitID string, centers [][]float64) {
	t.Helper()
	st, err := openCrashStack(t.TempDir(), wal.SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.kill()
	if n := crashWorkload(st); n != 2 || !slices.Equal(st.zoo.IDs(), crashModelOrder) {
		t.Fatalf("fault-free workload: %d ingests, models %v", n, st.zoo.IDs())
	}
	for _, id := range st.zoo.IDs() {
		if r, _ := st.zoo.Get(id); r.Fit() != st.svc.FitID() {
			t.Fatalf("model %s is stamped with fit %q, the service's is %q", id, r.Fit(), st.svc.FitID())
		}
	}
	return st.svc.FitID(), st.svc.Clusters().Centers
}

// checkRecovered reopens dir and holds it to the invariants. live is the
// faulted run's zoo (nil when the run died before it had one); ingests is
// how many ingests it acknowledged; exact says every acknowledgement must
// have survived (fsync=always), otherwise only a prefix of them must have.
func checkRecovered(t *testing.T, when, dir string, live *fairms.Zoo, ingests int, exact bool, refFit string, refCenters [][]float64) {
	t.Helper()
	re, err := openCrashStack(dir, wal.SyncAlways, nil)
	if err != nil {
		t.Fatalf("%s: reopen: %v", when, err) // (i)
	}
	defer re.kill()

	samples, models := re.svc.StoreCount(), re.zoo.IDs()
	// (ii) the fit is absent — and then so is everything that depends on
	// it — or it is the reference fit, whole.
	if re.svc.K() == 0 {
		if re.svc.FitID() != "" || samples != 0 || len(models) != 0 { // (iv) rides here
			t.Fatalf("%s: no fit, yet fit id %q, %d samples, models %v", when, re.svc.FitID(), samples, models)
		}
	} else if re.svc.FitID() != refFit || !reflect.DeepEqual(re.svc.Clusters().Centers, refCenters) {
		t.Fatalf("%s: recovered fit %q with centers %v; want %q %v", when, re.svc.FitID(), re.svc.Clusters().Centers, refFit, refCenters)
	}

	// Samples arrive a whole ingest at a time.
	if samples%crashBatch != 0 || samples > (ingests+1)*crashBatch || (exact && samples < ingests*crashBatch) {
		t.Fatalf("%s: %d samples recovered after %d acknowledged ingests of %d", when, samples, ingests, crashBatch)
	}

	// (iii) the zoo lists a prefix of the registration order: every
	// acknowledged model (all of them when exact), then at most the one that
	// was in flight — whole, or OpenZoo would have refused it.
	var acked []string
	if live != nil {
		acked = live.IDs()
	}
	if len(models) > len(acked)+1 || (exact && len(models) < len(acked)) ||
		!slices.Equal(models, crashModelOrder[:len(models)]) {
		t.Fatalf("%s: recovered models %v after acknowledging %v", when, models, acked)
	}
	for i, id := range models {
		got, _ := re.zoo.Get(id)
		if got.Fit() != refFit {
			t.Fatalf("%s: model %s recovered with fit %q, want %q", when, id, got.Fit(), refFit)
		}
		if i >= len(acked) {
			continue
		}
		want, _ := live.Get(id)
		gb, _ := got.State.Bytes()
		wb, _ := want.State.Bytes()
		if !bytes.Equal(gb, wb) || !reflect.DeepEqual(got.TrainPDF, want.TrainPDF) ||
			!reflect.DeepEqual(got.Meta, want.Meta) || !got.AddedAt.Equal(want.AddedAt) {
			t.Fatalf("%s: model %s changed across the crash:\n got  %+v\n want %+v", when, id, got, want)
		}
	}
}

// TestCrashSweepServiceState cuts the power — and, separately, kills the
// process — while the workload writes, under the fsync policy named by
// FAIRDMS_FSYNC. With the variable set (the CI recovery job runs all three
// policies) the cut lands on every byte offset, some 10,000 stacks opened
// twice each; unset, the policy is always and the package suite strides
// through the offsets.
func TestCrashSweepServiceState(t *testing.T) {
	policyName, step := os.Getenv("FAIRDMS_FSYNC"), int64(1)
	if policyName == "" {
		policyName, step = "always", 29
	}
	if testing.Short() {
		step = 53
	}
	policy, err := wal.ParsePolicy(policyName)
	if err != nil {
		t.Fatal(err)
	}
	refFit, refCenters := crashReference(t)
	for _, dropUnsynced := range []bool{false, true} {
		name := "process-kill"
		if dropUnsynced {
			name = "power-cut"
		}
		t.Run(name, func(t *testing.T) {
			for cut := int64(1); ; cut += step {
				dir := t.TempDir()
				ffs := fsx.NewFaultFS(fsx.FaultPlan{CrashAfterBytes: cut, DropUnsynced: dropUnsynced})
				var live *fairms.Zoo
				ingests := 0
				st, err := openCrashStack(dir, policy, ffs)
				if err == nil {
					ingests = crashWorkload(st)
					live = st.zoo
					st.kill()
				} else if !ffs.Crashed() {
					t.Fatalf("cut %d: open failed without a crash: %v", cut, err)
				}
				// A process kill keeps every byte the kernel took, so what was
				// acknowledged survives under any policy; a power cut keeps
				// only what was fsynced.
				exact := !dropUnsynced || policy == wal.SyncAlways
				checkRecovered(t, fmt.Sprintf("cut %d (%s, fsync=%s)", cut, name, policyName),
					dir, live, ingests, exact, refFit, refCenters)
				if !ffs.Crashed() {
					if ingests != 2 || len(live.IDs()) != len(crashModelOrder) {
						t.Fatalf("cut %d: the workload stopped early without a crash", cut)
					}
					return // the budget outlasted the workload: every offset is covered
				}
			}
		})
	}
}

// TestTornWriteMatrixServiceState damages the log's final record — cut at
// every byte, then each byte flipped — where that record is the fit
// document (the explicit-fit route writes nothing else) and where it is a
// model document (C, the workload's last write). The reopen must land on
// the state before that record: no fit at all, never half of one; a zoo
// without C, never with part of it.
func TestTornWriteMatrixServiceState(t *testing.T) {
	refFit, _ := crashReference(t)
	for name, build := range map[string]func(st *crashStack){
		"fit": func(st *crashStack) {
			if !st.post(PathFit, FitRequest{K: crashK, Samples: FromCodecSlice(crashSamples(1))}, nil) {
				t.Fatal("explicit fit failed")
			}
		},
		"model": func(st *crashStack) { crashWorkload(st) },
	} {
		t.Run(name, func(t *testing.T) {
			ref := t.TempDir()
			st, err := openCrashStack(ref, wal.SyncAlways, nil)
			if err != nil {
				t.Fatal(err)
			}
			build(st)
			st.kill()
			// One WAL shard: the live generation is the one non-empty
			// segment (compaction removed the ones below it).
			var seg string
			var full []byte
			files, _ := filepath.Glob(filepath.Join(ref, "*.log"))
			for _, f := range files {
				if b, err := os.ReadFile(f); err == nil && len(b) > 8 {
					if seg != "" {
						t.Fatalf("two live segments: %s and %s", seg, f)
					}
					seg, full = filepath.Base(f), b
				}
			}
			if seg == "" {
				t.Fatal("no live WAL segment")
			}
			lastStart := 8 // segment header; then frames of 16 header bytes + payload
			for off := 8; off < len(full); {
				lastStart = off
				off += 16 + int(uint32(full[off])|uint32(full[off+1])<<8|uint32(full[off+2])<<16|uint32(full[off+3])<<24)
			}

			damage := func(when string, mutate func(b []byte) []byte) {
				dir := t.TempDir()
				if err := os.CopyFS(dir, os.DirFS(ref)); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, seg), mutate(append([]byte(nil), full...)), 0o644); err != nil {
					t.Fatal(err)
				}
				re, err := openCrashStack(dir, wal.SyncAlways, nil)
				if err != nil {
					t.Fatalf("%s: reopen: %v", when, err)
				}
				fit, models, samples := re.svc.FitID(), re.zoo.IDs(), re.svc.StoreCount()
				re.kill()
				switch name {
				case "fit":
					if fit != "" || samples != 0 || len(models) != 0 {
						t.Fatalf("%s: a damaged fit record left fit %q, %d samples, models %v", when, fit, samples, models)
					}
				case "model":
					if fit != refFit || samples != 2*crashBatch || !slices.Equal(models, crashModelOrder[:2]) {
						t.Fatalf("%s: a damaged model record left fit %q, %d samples, models %v", when, fit, samples, models)
					}
				}
			}
			for cut := lastStart; cut < len(full); cut++ {
				damage(fmt.Sprintf("truncated at %d", cut), func(b []byte) []byte { return b[:cut] })
			}
			for pos := lastStart; pos < len(full); pos += 3 {
				damage(fmt.Sprintf("bit flipped at %d", pos), func(b []byte) []byte { b[pos] ^= 1; return b })
			}
		})
	}
}
