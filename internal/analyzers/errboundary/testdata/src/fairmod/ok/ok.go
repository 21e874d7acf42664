// Fixture handler package that respects the boundary: the sentinel is
// mapped with errors.Is and every failure goes through the JSON writer.
package ok

import (
	"encoding/json"
	"errors"
	"net/http"

	"fairmod/svc"
)

func writeErr(w http.ResponseWriter, status int, msg string) {
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// WriteStatusError is the envelope writer by name: a constant error
// status inside it is the sanctioned path, not an ad-hoc escape.
func WriteStatusError(w http.ResponseWriter, msg string) {
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func handlePost(w http.ResponseWriter, r *http.Request) error {
	if r.URL.Query().Get("id") == "" {
		WriteStatusError(w, "missing id")
		return nil
	}
	w.WriteHeader(http.StatusAccepted) // non-error statuses stay free-form
	return nil
}

func handleGet(w http.ResponseWriter, r *http.Request) error {
	val, err := svc.Fetch(r.URL.Query().Get("id"))
	if err != nil {
		if errors.Is(err, svc.ErrMissing) {
			writeErr(w, http.StatusNotFound, "no such id")
			return nil
		}
		writeErr(w, http.StatusInternalServerError, "internal error")
		return nil
	}
	_, werr := w.Write([]byte(val))
	return werr
}
