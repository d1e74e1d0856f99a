package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// listChips returns the GET /v1/chips response body.
func listChips(t *testing.T, m *Manager) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	m.Handler(nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/chips", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/chips: status %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

func readTestdata(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRestoresCheckpointWrittenBySnapshotVersion2 pins compatibility with
// fleet checkpoints already on disk. testdata/fleet_v2.ckpt was written by
// the last build that still carried the gob system-checkpoint path: three
// 3x3 chips over two corners and two workloads, stepped unevenly, with one
// suspended by a residency budget of two. The chip listings beside it are
// what that build answered right after restoring the file and after a
// further 5-step batch; this build must answer both byte for byte.
func TestRestoresCheckpointWrittenBySnapshotVersion2(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()
	if err := m.Restore(readTestdata(t, "fleet_v2.ckpt")); err != nil {
		t.Fatal(err)
	}
	if got, want := listChips(t, m), readTestdata(t, "fleet_v2_chips.json"); !bytes.Equal(got, want) {
		t.Errorf("restored listing differs from the writer's:\n got %s\nwant %s", got, want)
	}
	if _, err := m.StepAll(ctx(), 5); err != nil {
		t.Fatal(err)
	}
	if got, want := listChips(t, m), readTestdata(t, "fleet_v2_chips_step5.json"); !bytes.Equal(got, want) {
		t.Errorf("listing after 5 more steps differs from the writer's:\n got %s\nwant %s", got, want)
	}
}
