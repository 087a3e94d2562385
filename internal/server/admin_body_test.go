package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// serveBody sends a POST with the given body straight to h and returns the
// recorded response.
func serveBody(h http.Handler, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", target, strings.NewReader(body)))
	return rec
}

// TestLoadDatasetBodyLimit checks that the dataset-load handler reads at
// most maxLoadBody bytes: a larger body is refused with 413 before any
// dataset is opened, while a malformed body under the limit stays a 400.
func TestLoadDatasetBodyLimit(t *testing.T) {
	s, err := New(rankGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	huge := `{"name":"x","path":"` + strings.Repeat("a", int(maxLoadBody)) + `"}`
	if rec := serveBody(s, "/v1/admin/datasets", huge); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized load body: status %d (%s), want 413", rec.Code, rec.Body)
	}
	if rec := serveBody(s, "/v1/admin/datasets", `{"name":`); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed load body: status %d (%s), want 400", rec.Code, rec.Body)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/datasets", nil))
	if strings.Contains(rec.Body.String(), `"x"`) {
		t.Fatalf("refused load still registered a dataset: %s", rec.Body)
	}
}

// TestApplyUpdatesBodyLimit checks that the updates handler reads at most
// maxUpdatesBody bytes: a larger batch is refused with 413 and applies
// nothing, and a batch within the limit still goes through. The limit is
// lowered for the test so the oversized body stays small.
func TestApplyUpdatesBodyLimit(t *testing.T) {
	ts, _, _ := mutableServer(t)
	h := ts.Config.Handler
	defer func(old int64) { maxUpdatesBody = old }(maxUpdatesBody)
	maxUpdatesBody = 1 << 10

	ops := strings.Repeat(`{"op":"delete","u":0,"v":1},`, 64)
	big := `{"updates":[` + ops + `{"u":0,"v":4}]}`
	if int64(len(big)) <= maxUpdatesBody {
		t.Fatalf("test body of %d bytes does not exceed the %d-byte limit", len(big), maxUpdatesBody)
	}
	if rec := serveBody(h, "/v1/admin/datasets/dyn/updates", big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized updates body: status %d (%s), want 413", rec.Code, rec.Body)
	}
	rec := serveBody(h, "/v1/admin/datasets/dyn/updates", `{"updates":[{"op":"delete","u":0,"v":4}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("small batch after a refused one: status %d (%s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"deleted":1`) || !strings.Contains(rec.Body.String(), `"snapshot_epoch":1`) {
		t.Fatalf("refused batch must not have advanced the epoch: %s", rec.Body)
	}
}
