package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"fairdms/internal/dmsapi"
)

func testResult(workload string) *result {
	rc := &runCtx{spec: specByName(workload), seed: 1, seconds: 1}
	return newResult(rc)
}

// A corrupted expected answer must fail the op, the run's correctness and
// the process's exit code.
func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	resp := dmsapi.NearestResponse{Matches: []dmsapi.Match{{DocID: "a-1", Dist: 0.25, Found: true}, {DocID: "b-7", Dist: 0.5, Found: true}}}
	got := nearestAnswer(resp)
	reference := nearestAnswer(resp)

	res := testResult("cluster_serve")
	rec := &recorder{res: res, on: true}
	rec.beginChunk()
	rec.observe(opNearest, time.Millisecond, sameAnswer(opNearest, got, reference))
	if !res.correct() || exitCode([]*result{res}) != 0 {
		t.Fatalf("an answer equal to its reference failed: %v", res.Failures)
	}

	reference.dists[1] = 0.75 // corrupt the expectation
	rec.observe(opNearest, time.Millisecond, sameAnswer(opNearest, got, reference))
	if res.correct() || res.Failed != 1 || len(res.Failures) != 1 {
		t.Fatalf("a corrupted reference went unnoticed: failed=%d %v", res.Failed, res.Failures)
	}
	if exitCode([]*result{res}) == 0 {
		t.Fatal("a failed check must exit non-zero")
	}
	rec.setCommon(time.Second)
	if got := res.Metrics["ok_share"].Value; got != 0.5 {
		t.Errorf("ok_share = %v, want 0.5 (one of two ops passed)", got)
	}
	line, err := driverLine(res, false)
	if err == nil && !strings.Contains(line, `"correct":false`) {
		t.Errorf("driver line hides the failure: %s", line)
	}

	want := nearestAnswer(resp)
	want.docIDs[0] = "a-2"
	if sameDocs(got, want) == nil {
		t.Error("a different document ID after recovery went unnoticed")
	}
}

func TestAnswerChecks(t *testing.T) {
	ok := dmsapi.NearestResponse{Matches: []dmsapi.Match{{DocID: "x", Dist: 0, Found: true}}}
	if err := checkNearest(ok, 1); err != nil {
		t.Errorf("valid nearest answer rejected: %v", err)
	}
	for name, bad := range map[string]dmsapi.NearestResponse{
		"degraded":  {Matches: ok.Matches, Degraded: true},
		"short":     {},
		"not found": {Matches: []dmsapi.Match{{Dist: 1}}},
		"negative":  {Matches: []dmsapi.Match{{DocID: "x", Dist: -1, Found: true}}},
		"nan":       {Matches: []dmsapi.Match{{DocID: "x", Dist: math.NaN(), Found: true}}},
	} {
		if checkNearest(bad, 1) == nil {
			t.Errorf("nearest answer %q passed its check", name)
		}
	}
	if checkCertainty(dmsapi.CertaintyResponse{Certainty: 1.5}) == nil || checkCertainty(dmsapi.CertaintyResponse{Certainty: math.NaN()}) == nil {
		t.Error("certainty outside [0,1] passed")
	}
	zoo := map[string]bool{"m000": true}
	if checkRecommend(dmsapi.RecommendResponse{ID: "m000", OK: true}, zoo) != nil {
		t.Error("a seeded model was rejected")
	}
	if checkRecommend(dmsapi.RecommendResponse{ID: "other", OK: true}, zoo) == nil || checkRecommend(dmsapi.RecommendResponse{ID: "m000"}, zoo) == nil {
		t.Error("an unseeded or not-OK recommendation passed")
	}
	if checkLookup(dmsapi.LookupResponse{Samples: []dmsapi.Sample{{Data: []byte{1}}}}) == nil {
		t.Error("an unlabelled lookup sample passed")
	}
	if checkIngest(dmsapi.IngestBatchResponse{IDs: []string{"a", ""}, Inserted: 1, Errors: []dmsapi.DocError{{Index: 1}}}, 2) == nil {
		t.Error("a partially rejected batch passed")
	}
}

// A metric is emitted only on the workloads marked for it.
func TestUnexercisedMetricsStayAbsent(t *testing.T) {
	res := testResult("update_cycle")
	res.set("certainty_p50_ms", 1.5, 20) // marked for the serving workloads only
	res.set("update_p50_s", 0.7, 20)
	if _, ok := res.Metrics["certainty_p50_ms"]; ok {
		t.Error("update_cycle emitted certainty_p50_ms")
	}
	if _, ok := res.Metrics["update_p50_s"]; !ok {
		t.Error("update_cycle lost update_p50_s")
	}
}
