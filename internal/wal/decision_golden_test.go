package wal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestDecisionLogGoldenFiles reopens an intents.luf and a
// migrations.luf written by the separate IntentLog and MigrationLog
// that DecisionLog replaced (testdata/, together with the records those
// logs folded them into on reopen: decisions.golden.json). Between them
// the files hold every intent and migration state, several Copying
// watermarks including a lower one after a higher, Flipped records with
// nodes and map epoch, and fence records from three earlier opens. The
// unified log must fold them to the same records, and each open must
// land on the highest fence in the file plus one.
func TestDecisionLogGoldenFiles(t *testing.T) {
	var golden struct {
		IntentEpoch    uint64 `json:"intent_epoch"`
		Intents        []irec `json:"intents"`
		MigrationEpoch uint64 `json:"migration_epoch"`
		Migrations     []mrec `json:"migrations"`
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "decisions.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	// Opening appends a fence record, so work on copies.
	dir := t.TempDir()
	openCopy := func(name string) (string, uint64) {
		image, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		res, err := DecodeAll(image, DeltaCodec{})
		if err != nil || res.TornBytes != 0 {
			t.Fatalf("%s: decode err=%v torn=%d", name, err, res.TornBytes)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, image, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyAuxLog(p, DeltaCodec{}); err != nil {
			t.Fatalf("%s: aux-log sweep: %v", name, err)
		}
		return p, res.Fence
	}

	ip, ifence := openCopy("intents.luf")
	il, err := OpenIntents(ip, DeltaCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer il.Close()
	if got := il.Epoch(); got != ifence+1 || got != golden.IntentEpoch {
		t.Fatalf("intent epoch = %d, want highest fence %d + 1 = %d", got, ifence, golden.IntentEpoch)
	}
	if got := il.Records(); !reflect.DeepEqual(got, golden.Intents) {
		t.Fatalf("intents folded to\n%+v\nwant\n%+v", got, golden.Intents)
	}

	mp, mfence := openCopy("migrations.luf")
	ml, err := OpenMigrations(mp, DeltaCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Close()
	if got := ml.Epoch(); got != mfence+1 || got != golden.MigrationEpoch {
		t.Fatalf("migration epoch = %d, want highest fence %d + 1 = %d", got, mfence, golden.MigrationEpoch)
	}
	if got := ml.Records(); !reflect.DeepEqual(got, golden.Migrations) {
		t.Fatalf("migrations folded to\n%+v\nwant\n%+v", got, golden.Migrations)
	}

	// The files must really cover every state.
	seenI := map[IntentState]bool{}
	for _, r := range golden.Intents {
		seenI[r.State] = true
	}
	seenM := map[MigrationState]bool{}
	for _, r := range golden.Migrations {
		seenM[r.State] = true
	}
	for s := IntentPending; s <= IntentDone; s++ {
		if !seenI[s] {
			t.Errorf("golden intents lack a %v intent", s)
		}
	}
	for s := MigrationPlanned; s <= MigrationAborted; s++ {
		if !seenM[s] {
			t.Errorf("golden migrations lack a %v migration", s)
		}
	}
}
