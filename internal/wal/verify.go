package wal

import (
	"errors"
	"os"
	"path/filepath"

	"luf/internal/fault"
)

// VerifyDir re-reads a store directory's files straight from disk and
// re-checks every frame's length and CRC-32C — the scrubber's disk
// pass, run against the same bytes recovery would read, not the
// in-memory mirror. It returns the number of frames verified.
//
// A torn tail on the live journal is tolerated exactly as recovery
// tolerates it (it may be an append racing this read); everything else
// — a checksum mismatch mid-file, an undecodable record, a damaged or
// headerless snapshot, a missing journal under a live store — is
// returned as a structured fault.ErrIO error. VerifyDir only reads, so
// it is safe to run concurrently with appends, snapshots and trims
// (snapshot and trim rewrites are atomic renames; a reader sees the
// old complete file or the new one).
func VerifyDir[N comparable, L any](dir string, c Codec[N, L]) (int, error) {
	frames := 0
	jpath := filepath.Join(dir, journalName)
	image, err := os.ReadFile(jpath)
	if err != nil {
		return 0, fault.IOf("verify: read %s: %v", jpath, err)
	}
	res, err := DecodeAll(image, c)
	if err != nil {
		return frames, err
	}
	frames += len(res.Records)
	if res.HasHeader {
		frames++
	}
	spath := filepath.Join(dir, snapshotName)
	simage, err := os.ReadFile(spath)
	if errors.Is(err, os.ErrNotExist) {
		return frames, nil
	}
	if err != nil {
		return frames, fault.IOf("verify: read %s: %v", spath, err)
	}
	sres, err := DecodeAll(simage, c)
	if err != nil {
		return frames, err
	}
	if !sres.HasHeader || sres.TornBytes > 0 {
		return frames, fault.IOf("verify: snapshot %s is damaged (%d valid bytes, %d torn): snapshots are written atomically, so this is corruption", spath, sres.ValidLen, sres.TornBytes)
	}
	frames += len(sres.Records) + 1
	return frames, nil
}

// VerifyAuxLog re-reads one auxiliary coordinator log (a two-phase
// intent log or a migration log) straight from disk and re-checks
// every frame's length, CRC-32C and record decoding, then re-folds the
// lifecycle records through the fold DecisionLog recovery uses, to
// catch a forward-only violation that framing alone would miss. It
// returns the number of intent plus migration frames verified.
//
// A missing file is fine (the coordinator has not written one yet), as
// is a torn tail (it may be an append racing this read — the next open
// repairs it); mid-file damage is a structured fault.ErrIO error.
func VerifyAuxLog[N comparable, L any](path string, c Codec[N, L]) (int, error) {
	image, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fault.IOf("verify: read %s: %v", path, err)
	}
	res, err := DecodeAll(image, c)
	if err != nil {
		return 0, err
	}
	if _, _, err := foldDecisions(res.Intents); err != nil {
		return 0, fault.IOf("verify: %s: %v", path, err)
	}
	if _, _, err := foldDecisions(res.Migrations); err != nil {
		return 0, fault.IOf("verify: %s: %v", path, err)
	}
	return len(res.Intents) + len(res.Migrations), nil
}
