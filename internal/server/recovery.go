// Startup recovery: a restarted daemon scans its state directory and
// boots DEGRADED rather than refusing to start. Every persisted job is
// classified exactly one way:
//
//   - resumed: record and checkpoint both verify — the job continues
//     from its checkpointed cycle, bit-identical to an uninterrupted run.
//   - requeued: the record verifies but the checkpoint is missing,
//     damaged or of another snapshot version — the unusable file is
//     quarantined and the job reruns from cycle 0, which reaches the
//     same final bytes (the simulator is deterministic).
//   - quarantined: the record itself is damaged — both files move to
//     quarantine/ with a .reason note, and the daemon carries on.
//
// Torn *.tmp files (a crash mid-stage) are deleted: the atomic-write
// protocol guarantees the target they were staging for is intact.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"chipletnoc/internal/durable"
	"chipletnoc/internal/sim"
)

// RecoveryReport summarizes a boot-time state scan; /readyz serves it.
type RecoveryReport struct {
	Resumed     int      `json:"resumed"`
	Requeued    int      `json:"requeued"`
	Quarantined int      `json:"quarantined"`
	Notes       []string `json:"notes,omitempty"`
}

// maxRecoveryNotes bounds the note log so a pathological state
// directory cannot balloon the report.
const maxRecoveryNotes = 64

// note appends to the recovery log. Callers hold s.mu, or run before
// the worker pool starts.
func (s *Server) note(format string, args ...interface{}) {
	if len(s.recovery.Notes) < maxRecoveryNotes {
		s.recovery.Notes = append(s.recovery.Notes, fmt.Sprintf(format, args...))
	}
}

// quarantineDirName is the subdirectory damaged state files move into.
const quarantineDirName = "quarantine"

// recoverState scans the state directory, rebuilding every job it can
// and quarantining what it cannot. It only fails when the directory
// itself is unreadable — per-file damage never prevents startup.
func (s *Server) recoverState() ([]*Job, error) {
	entries, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return nil, err
	}
	// seen marks every job ID that had a record — good or bad — so the
	// debris pass below does not re-handle (or re-count) its checkpoint.
	seen := map[string]bool{}
	var jobs []*Job
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, jobRecordSuffix) {
			continue
		}
		id := strings.TrimSuffix(name, jobRecordSuffix)
		seen[id] = true
		job, err := s.recoverJob(id)
		if err != nil {
			s.quarantine(name, err)
			s.quarantine(id+checkpointSuffix, fmt.Errorf("its job record was quarantined: %v", err))
			s.recovery.Quarantined++
			continue
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "job-")); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		jobs = append(jobs, job)
	}
	// Debris pass: torn temp files from an interrupted stage, legacy
	// pre-v3 records, and checkpoints whose record is gone.
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() || strings.HasSuffix(name, jobRecordSuffix):
		case strings.HasSuffix(name, durable.TmpSuffix):
			os.Remove(filepath.Join(s.cfg.StateDir, name))
			s.note("removed torn temp file %s", name)
		case strings.HasSuffix(name, ".json"):
			s.quarantine(name, errors.New("legacy job record without a checksum envelope"))
			s.recovery.Quarantined++
		case strings.HasSuffix(name, checkpointSuffix) && !seen[strings.TrimSuffix(name, checkpointSuffix)]:
			s.quarantine(name, errors.New("orphaned checkpoint without a job record"))
			s.recovery.Quarantined++
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobIDLess(jobs[i].ID, jobs[j].ID) })
	return jobs, nil
}

// recoverJob loads one persisted job. A damaged record is an error (the
// caller quarantines it); a damaged, stale or missing checkpoint is not —
// the job is requeued from cycle 0 and determinism makes that equivalent.
func (s *Server) recoverJob(id string) (*Job, error) {
	payload, err := durable.ReadSealed(filepath.Join(s.cfg.StateDir, id+jobRecordSuffix))
	if err != nil {
		return nil, err
	}
	var p persistedJob
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, fmt.Errorf("job record: %w", err)
	}
	if p.ID != id {
		return nil, fmt.Errorf("job record names %q but the file names %q", p.ID, id)
	}
	// The record is input like any other: normalizing it resolves the
	// kind and guarantees the spec is in the one canonical form identity,
	// the run and the spec echo all assume — whoever wrote the file.
	spec, k, err := normalizeSpec(p.Spec)
	if err != nil {
		return nil, fmt.Errorf("job record: spec: %w", err)
	}
	job := &Job{ID: p.ID, Spec: spec, kind: k, Status: StatusQueued, Cycle: p.Cycle, persisted: true}
	ckptName := id + checkpointSuffix
	ckpt, err := durable.ReadFile(filepath.Join(s.cfg.StateDir, ckptName))
	switch {
	case err == nil:
		// Frame verification (trailer + whole-file CRC32-C) proves the
		// checkpoint complete and untampered without building a topology;
		// the header then proves it is in this build's layout. A sealed
		// checkpoint a daemon at another sim.SnapshotVersion wrote is
		// intact but cannot resume, so it is requeued here, not counted
		// resumed and refused later.
		framed, verr := sim.VerifySnapshotFrame(ckpt)
		if verr == nil {
			_, verr = sim.ReadSnapshotHeader(sim.NewDecoder(framed))
		}
		if verr != nil {
			s.quarantine(ckptName, verr)
			s.recovery.Requeued++
			job.Cycle = 0
			s.note("job %s: checkpoint failed verification, requeued from cycle 0", id)
		} else {
			job.resume = ckpt
			s.recovery.Resumed++
		}
	case errors.Is(err, os.ErrNotExist):
		// Submitted (or suspended while queued) but never checkpointed.
		job.Cycle = 0
		s.recovery.Requeued++
	default:
		job.Cycle = 0
		s.recovery.Requeued++
		s.note("job %s: checkpoint unreadable (%v), requeued from cycle 0", id, err)
	}
	return job, nil
}

// quarantine moves a damaged state file into quarantine/ beside a
// .reason note. It never fails the boot: when even the move is
// impossible the file is deleted so the next scan stays clean.
func (s *Server) quarantine(name string, cause error) {
	src := filepath.Join(s.cfg.StateDir, name)
	if _, err := os.Lstat(src); err != nil {
		return
	}
	qdir := filepath.Join(s.cfg.StateDir, quarantineDirName)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		os.Remove(src)
		s.note("quarantine dir unavailable (%v); deleted %s", err, name)
		return
	}
	dst := filepath.Join(qdir, name)
	if err := os.Rename(src, dst); err != nil {
		os.Remove(src)
		s.note("could not move %s to quarantine (%v); deleted it", name, err)
		return
	}
	os.WriteFile(dst+".reason", []byte(cause.Error()+"\n"), 0o644)
	s.note("quarantined %s: %v", name, cause)
}
