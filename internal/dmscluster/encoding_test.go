package dmscluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"testing"

	"fairdms/internal/dmsapi"
	"fairdms/internal/nn"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/json_golden.json from this build's JSON responses")

// goldenPath holds the JSON response body of one request per route, as the
// commit before the frame encoding wrote them: what a caller that is not
// dmsapi.Client must keep getting, byte for byte.
const goldenPath = "testdata/json_golden.json"

// answer is what one scripted request came back as: the status, the
// envelope code of a failure, the typed value of a success — and, from the
// JSON caller only, the success body as it was on the wire.
type answer struct {
	status int
	code   dmsapi.ErrorCode
	value  any
	raw    string
}

// caller sends one request in one encoding.
type caller interface {
	// post sends req (a wire struct) and decodes a 2xx body into out.
	post(path string, req, out any) answer
	// raw sends body as is, under this caller's Content-Type.
	raw(path string, body []byte) answer
	// encode is how this caller puts v on the wire.
	encode(v any) []byte
}

// jsonCaller is a caller that has never heard of dmsapi.Client: net/http
// and encoding/json, as curl or another language's client would.
type jsonCaller struct {
	t    *testing.T
	addr string
}

func (c jsonCaller) encode(v any) []byte {
	body, err := json.Marshal(v)
	if err != nil {
		c.t.Fatal(err)
	}
	return body
}

func (c jsonCaller) post(path string, req, out any) answer {
	a := c.raw(path, c.encode(req))
	if a.status == http.StatusOK {
		if err := json.Unmarshal([]byte(a.raw), out); err != nil {
			c.t.Fatalf("POST %s: decoding %q: %v", path, a.raw, err)
		}
		a.value = reflect.ValueOf(out).Elem().Interface()
	}
	return a
}

func (c jsonCaller) raw(path string, body []byte) answer {
	resp, err := http.Post("http://"+c.addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("POST %s: %v", path, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		c.t.Fatalf("POST %s as JSON: answered as %q", path, ct)
	}
	a := answer{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		a.raw = string(data)
		return a
	}
	var er dmsapi.ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		c.t.Fatalf("POST %s: status %d without an envelope: %q", path, resp.StatusCode, data)
	}
	a.code = er.Error.Code
	return a
}

// frameCaller is dmsapi.Client: it frames whatever carries samples.
type frameCaller struct {
	t *testing.T
	c *dmsapi.Client
}

func (c frameCaller) encode(v any) []byte {
	body, err := dmsapi.EncodeBody(v)
	if err != nil || body.ContentType != dmsapi.ContentTypeFrames {
		c.t.Fatalf("framing %T: %q, err %v", v, body.ContentType, err)
	}
	return body.Data
}

func (c frameCaller) post(path string, req, out any) answer {
	a := c.answer(c.c.DoJSON(context.Background(), "POST", path, req, out))
	if a.status == http.StatusOK {
		a.value = reflect.ValueOf(out).Elem().Interface()
	}
	return a
}

func (c frameCaller) raw(path string, body []byte) answer {
	return c.answer(c.c.DoBody(context.Background(), "POST", path,
		dmsapi.Body{ContentType: dmsapi.ContentTypeFrames, Data: body}, nil))
}

func (c frameCaller) answer(err error) answer {
	if err == nil {
		return answer{status: http.StatusOK}
	}
	var se *dmsapi.StatusError
	if !errors.As(err, &se) {
		c.t.Fatalf("framed exchange failed below HTTP: %v", err)
	}
	return answer{status: se.Code, code: se.ErrCode}
}

// encodingScript is the fixed request sequence both callers run against
// identical fresh stacks. It covers every sample-carrying route the tier
// serves — success first, then each way a body can be wrong — and one
// request of every other deterministic route for the golden comparison.
// Steps are named; names are the golden file's keys.
func encodingScript(t *testing.T, tier string, c caller) map[string]answer {
	t.Helper()
	all := braggCorpus(53, 64)
	corpus, queries := dmsapi.FromCodecSlice(all[:48]), dmsapi.FromCodecSlice(all[48:56])
	out := make(map[string]answer)
	onShard := tier == "dmsd" // routes a router does not serve

	// Before any fit: the typed 409.
	out["certainty, unfitted"] = c.post(dmsapi.PathCertainty, dmsapi.CertaintyRequest{Samples: queries, Threshold: 0.5}, new(dmsapi.CertaintyResponse))
	out["lookup, unfitted"] = c.post(dmsapi.PathLookup, dmsapi.LookupRequest{Samples: queries}, new(dmsapi.LookupResponse))

	if onShard {
		out["fit"] = c.post(dmsapi.PathFit, dmsapi.FitRequest{Samples: corpus[:24], K: 3}, new(dmsapi.FitResponse))
	}
	var ingested dmsapi.IngestBatchResponse
	for i, name := range []string{"ingest:batch", "ingest:batch, second", "ingest:batch, third"} {
		out[name] = c.post(dmsapi.PathIngestBatch, dmsapi.IngestBatchRequest{Dataset: "enc", Samples: corpus[8*i : 8*i+8]}, &ingested)
	}
	out["ingest"] = c.post(dmsapi.PathIngest, dmsapi.IngestRequest{Dataset: "enc", Samples: corpus[24:32]}, new(dmsapi.IngestResponse))

	// One bad document fails only itself: a DocError at its index, the
	// rest of the batch committed.
	mixed := append([]dmsapi.Sample(nil), corpus[32:36]...)
	mixed[1].Dtype = 99
	out["ingest:batch, unknown dtype in document 1"] = c.post(dmsapi.PathIngestBatch, dmsapi.IngestBatchRequest{Dataset: "enc", Samples: mixed}, new(dmsapi.IngestBatchResponse))

	out["certainty"] = c.post(dmsapi.PathCertainty, dmsapi.CertaintyRequest{Samples: queries, Threshold: 0.5}, new(dmsapi.CertaintyResponse))
	out["pdf"] = c.post(dmsapi.PathPDF, dmsapi.PDFRequest{Samples: queries}, new(dmsapi.PDFResponse))
	out["nearest"] = c.post(dmsapi.PathNearest, dmsapi.NearestRequest{Samples: queries}, new(dmsapi.NearestResponse))
	out["nearest, distinct"] = c.post(dmsapi.PathNearest, dmsapi.NearestRequest{Samples: queries, Distinct: true}, new(dmsapi.NearestResponse))
	out["lookup"] = c.post(dmsapi.PathLookup, dmsapi.LookupRequest{Samples: queries}, new(dmsapi.LookupResponse))
	if onShard {
		out["draw"] = c.post(dmsapi.PathDraw, dmsapi.DrawRequest{Samples: queries, Seed: 7}, new(dmsapi.DrawResponse))
		out["samples"] = c.post(dmsapi.PathSamples, dmsapi.SamplesRequest{IDs: ingested.IDs[:3]}, new(dmsapi.SamplesResponse))
	}

	// A train submit carries samples too; its answer names a job, a time
	// and how far a worker has got, so only what the request decided is
	// compared.
	var job dmsapi.TrainJob
	a := c.post(dmsapi.PathTrain, dmsapi.TrainRequest{Samples: corpus[:16], Model: "mlp", Epochs: 1, Seed: 3}, &job)
	a.value, a.raw = [2]any{job.Model, job.Samples}, ""
	out["train"] = a

	// Routes without samples, for the golden file.
	pdf := out["pdf"].value.(dmsapi.PDFResponse).PDF
	out["models, add"] = c.post(dmsapi.PathModels, dmsapi.AddModelRequest{ID: "m1", PDF: pdf, State: tinyState(t)}, new(dmsapi.ModelInfo))
	out["recommend"] = c.post(dmsapi.PathRecommend, dmsapi.RecommendRequest{PDF: pdf}, new(dmsapi.RecommendResponse))

	// Every way a body can be wrong, on an all-or-nothing route.
	good := c.encode(dmsapi.NearestRequest{Samples: queries})
	out["malformed body"] = c.raw(dmsapi.PathNearest, []byte("{"))
	out["truncated body"] = c.raw(dmsapi.PathNearest, good[:len(good)-9])
	out["body over the cap"] = c.raw(dmsapi.PathNearest, c.encode(dmsapi.NearestRequest{Samples: append(append(corpus, corpus...), corpus...)}))
	out["empty batch"] = c.raw(dmsapi.PathCertainty, c.encode(dmsapi.CertaintyRequest{Threshold: 0.5}))
	out["empty ingest:batch"] = c.raw(dmsapi.PathIngestBatch, c.encode(dmsapi.IngestBatchRequest{Dataset: "enc"}))
	out["unknown dtype"] = c.raw(dmsapi.PathCertainty, c.encode(dmsapi.CertaintyRequest{Samples: mixed, Threshold: 0.5}))
	return out
}

// tinyState is a gob-encoded one-layer checkpoint.
func tinyState(t *testing.T) []byte {
	t.Helper()
	blob, err := nn.Sequential(nn.NewLinear(rand.New(rand.NewSource(3)), 4, 2)).State().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestEncodingParity: a client cannot tell which encoding it used. Four
// identical fresh stacks — {dmsd, router} × {JSON, frames} — run the same
// script; on each tier every step must come back with the same status,
// the same envelope code and the same decoded value under both encodings,
// and the JSON caller's success bodies must be byte-identical to the ones
// recorded before frames existed.
func TestEncodingParity(t *testing.T) {
	const bodyCap = 64 << 10
	golden := make(map[string]map[string]string)
	if !*updateGolden {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
	}
	wantStatus := map[string]struct {
		status int
		code   dmsapi.ErrorCode
	}{
		"certainty, unfitted": {409, dmsapi.CodeNotFitted},
		"lookup, unfitted":    {409, dmsapi.CodeNotFitted},
		"malformed body":      {400, dmsapi.CodeBadRequest},
		"truncated body":      {400, dmsapi.CodeBadRequest},
		"body over the cap":   {413, dmsapi.CodeTooLarge},
		"empty batch":         {400, dmsapi.CodeBadRequest},
		"empty ingest:batch":  {400, dmsapi.CodeBadRequest},
		"unknown dtype":       {400, dmsapi.CodeBadRequest},
	}

	for _, tier := range []string{"dmsd", "router"} {
		var addrs [2]string
		for i := range addrs {
			shard, router := startTiers(t, bodyCap, 1)
			addrs[i] = map[string]string{"dmsd": shard, "router": router}[tier]
		}
		client, err := dmsapi.NewClient(addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(client.Close)
		plain := encodingScript(t, tier, jsonCaller{t, addrs[0]})
		framed := encodingScript(t, tier, frameCaller{t, client})

		if len(plain) != len(framed) {
			t.Fatalf("%s: %d steps as JSON, %d framed", tier, len(plain), len(framed))
		}
		for name, p := range plain {
			f := framed[name]
			want, failing := wantStatus[name]
			if !failing {
				want.status = http.StatusOK
			}
			if p.status != want.status || p.code != want.code {
				t.Errorf("%s, %s as JSON: status %d code %q, want %d %q", tier, name, p.status, p.code, want.status, want.code)
			}
			if f.status != p.status || f.code != p.code {
				t.Errorf("%s, %s: framed answers %d %q, JSON %d %q", tier, name, f.status, f.code, p.status, p.code)
			}
			if !reflect.DeepEqual(f.value, p.value) {
				t.Errorf("%s, %s: the encodings decode to different answers\n frames %+v\n json   %+v", tier, name, f.value, p.value)
			}
		}

		// What the script was written to show, beyond agreement.
		if b, ok := plain["ingest:batch, unknown dtype in document 1"].value.(dmsapi.IngestBatchResponse); !ok ||
			b.Inserted != 3 || len(b.Errors) != 1 || b.Errors[0].Index != 1 || b.IDs[1] != "" {
			t.Errorf("%s: a bad document must fail alone, at its index: %+v", tier, b)
		}
		if l, ok := plain["lookup"].value.(dmsapi.LookupResponse); !ok || len(l.Samples) != 8 || len(l.Samples[0].Label) == 0 {
			t.Errorf("%s: lookup returned %+v", tier, l)
		}

		if *updateGolden {
			golden[tier] = make(map[string]string)
			for name, p := range plain {
				if p.raw != "" {
					golden[tier][name] = p.raw
				}
			}
			continue
		}
		if runtime.GOARCH != "amd64" {
			continue // fused multiply-adds move the last bit of the recorded floats
		}
		for name, want := range golden[tier] {
			if got := plain[name].raw; got != want {
				t.Errorf("%s, %s: the JSON body changed\n got  %s\n want %s", tier, name, got, want)
			}
		}
		if len(golden[tier]) < 12 {
			t.Errorf("%s: golden file holds %d routes", tier, len(golden[tier]))
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
