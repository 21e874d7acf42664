package main

import (
	"errors"
	"fmt"
	"math"

	"fairdms/internal/dmsapi"
)

// The answer checks behind ok_share: an op counts as ok only when the call
// succeeded and its answer passes the check for its kind.

var errDegraded = errors.New("response flagged degraded")

func checkNearest(resp dmsapi.NearestResponse, n int) error {
	if resp.Degraded {
		return errDegraded
	}
	if len(resp.Matches) != n {
		return fmt.Errorf("nearest: %d matches for %d samples", len(resp.Matches), n)
	}
	for i, m := range resp.Matches {
		if !m.Found || m.DocID == "" {
			return fmt.Errorf("nearest: sample %d found no document", i)
		}
		if math.IsNaN(m.Dist) || math.IsInf(m.Dist, 0) || m.Dist < 0 {
			return fmt.Errorf("nearest: sample %d distance %v", i, m.Dist)
		}
	}
	return nil
}

func checkCertainty(resp dmsapi.CertaintyResponse) error {
	if resp.Degraded {
		return errDegraded
	}
	if !(resp.Certainty >= 0 && resp.Certainty <= 1) {
		return fmt.Errorf("certainty %v outside [0,1]", resp.Certainty)
	}
	return nil
}

func checkRecommend(resp dmsapi.RecommendResponse, zoo map[string]bool) error {
	if resp.Degraded {
		return errDegraded
	}
	if !resp.OK || !zoo[resp.ID] {
		return fmt.Errorf("recommend: ok=%v id=%q is not a seeded zoo model", resp.OK, resp.ID)
	}
	return nil
}

func checkLookup(resp dmsapi.LookupResponse) error {
	if resp.Degraded {
		return errDegraded
	}
	if len(resp.Samples) == 0 {
		return errors.New("lookup: no samples")
	}
	for i, s := range resp.Samples {
		if len(s.Label) == 0 || len(s.Data) == 0 {
			return fmt.Errorf("lookup: sample %d is not a labelled sample", i)
		}
	}
	return nil
}

func checkIngest(resp dmsapi.IngestBatchResponse, n int) error {
	if len(resp.Errors) > 0 {
		return fmt.Errorf("ingest: %d documents rejected, first: %+v", len(resp.Errors), resp.Errors[0])
	}
	if resp.Inserted != n || len(resp.IDs) != n {
		return fmt.Errorf("ingest: %d of %d documents acknowledged", resp.Inserted, n)
	}
	return nil
}

// answer is what an op returned, reduced to the fields two deployments of
// the same corpus must agree on (the repo's cluster == single-node claim)
// and a restarted daemon must reproduce.
type answer struct {
	dists     []float64
	docIDs    []string
	certainty float64
	model     string
}

func nearestAnswer(resp dmsapi.NearestResponse) answer {
	a := answer{dists: make([]float64, len(resp.Matches)), docIDs: make([]string, len(resp.Matches))}
	for i, m := range resp.Matches {
		a.dists[i], a.docIDs[i] = m.Dist, m.DocID
	}
	return a
}

// sameAnswer compares the deployment-independent part of two answers:
// nearest distances, certainty and the recommended model. Document IDs are
// namespaced per shard, so they are compared only by sameDocs.
func sameAnswer(kind opKind, got, want answer) error {
	switch kind {
	case opNearest:
		if len(got.dists) != len(want.dists) {
			return fmt.Errorf("nearest: %d distances, reference has %d", len(got.dists), len(want.dists))
		}
		for i := range got.dists {
			if got.dists[i] != want.dists[i] {
				return fmt.Errorf("nearest: sample %d distance %v, reference %v", i, got.dists[i], want.dists[i])
			}
		}
	case opCertainty:
		// A router averages its shards' identical values; allow the last
		// bit of that division.
		if math.Abs(got.certainty-want.certainty) > 1e-12 {
			return fmt.Errorf("certainty %v, reference %v", got.certainty, want.certainty)
		}
	case opRecommend:
		if got.model != want.model {
			return fmt.Errorf("recommend %q, reference %q", got.model, want.model)
		}
	}
	return nil
}

// sameDocs requires the same document IDs in the same order: a restarted
// daemon must answer the fixed queries exactly as before the crash.
func sameDocs(got, want answer) error {
	if len(got.docIDs) != len(want.docIDs) {
		return fmt.Errorf("nearest: %d matches, expected %d", len(got.docIDs), len(want.docIDs))
	}
	for i := range got.docIDs {
		if got.docIDs[i] != want.docIDs[i] {
			return fmt.Errorf("nearest: query %d matched %q, expected %q", i, got.docIDs[i], want.docIDs[i])
		}
	}
	return nil
}
