package main

// Fixture building. The prepared repository is written by the code
// under test (store.ImportRuns plus Snapshot, the same calls a bulk
// import makes) in a child process, so the timed process never holds
// the fixture's build memory and no fixture bytes outlive the run.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/store"
)

// fixtureBatch is the run count of one ImportRuns call: one synced
// segment append and one manifest save per batch, as a bulk import of
// that size would do.
const fixtureBatch = 250

// buildFixture writes a workload's fixture repository into dir.
func buildFixture(w workload, seconds int, dir string) error {
	sp, runs, err := fixtureRunsOf(w, seconds)
	if err != nil {
		return err
	}
	st, err := store.OpenRepository(dir, "fs", 1)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.SaveSpec(specName, sp); err != nil {
		return err
	}
	for lo := 0; lo < len(runs); lo += fixtureBatch {
		hi := min(lo+fixtureBatch, len(runs))
		batch := make([]store.RunData, 0, hi-lo)
		for _, nr := range runs[lo:hi] {
			batch = append(batch, store.RunData{Name: nr.Name, XML: nr.XML})
		}
		if _, err := st.ImportRuns(specName, batch, 0); err != nil {
			return fmt.Errorf("fixture import: %w", err)
		}
	}
	if _, err := st.Snapshot(specName); err != nil {
		return fmt.Errorf("fixture snapshot: %w", err)
	}
	return nil
}

// runFixtureChild builds the fixture in a child process running this
// same binary and waits for it to exit.
func runFixtureChild(w workload, seconds int, dir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "fixture",
		"--workload", w.name, "--seconds", strconv.Itoa(seconds), "--dir", dir)
	// stdout carries only the result line, so the child's output
	// goes to stderr.
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("fixture child: %w", err)
	}
	return nil
}
