// Package cli holds small helpers shared by the command-line tools:
// flag validation and XML file loading.
package cli

import (
	"fmt"
	"os"

	"repro/internal/spec"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// ValidateK rejects non-positive cluster/neighbor counts at the
// command boundary. The analytics library clamps silently (it serves
// programmatic callers that compute k), but a human typing -k 0 or
// -k -3 meant something else and deserves an error naming the flag,
// the same hardening posture store.ValidateName applies to names.
func ValidateK(flagName string, k int) error {
	if k < 1 {
		return fmt.Errorf("-%s must be at least 1, got %d", flagName, k)
	}
	return nil
}

// LoadSpec reads a specification XML file.
func LoadSpec(path string) (*spec.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return wfxml.DecodeSpec(f)
}

// LoadRun reads a run XML file and derives its annotated tree against
// the specification.
func LoadRun(path string, sp *spec.Spec) (*wfrun.Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return wfxml.DecodeRun(f, sp)
}

// SaveSpec writes a specification XML file.
func SaveSpec(path string, sp *spec.Spec, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return wfxml.EncodeSpec(f, sp, name)
}

// SaveRun writes a run XML file.
func SaveRun(path string, r *wfrun.Run, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return wfxml.EncodeRun(f, r, name)
}
