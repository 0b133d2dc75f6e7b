package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"desword/internal/poc"
	"desword/internal/supplychain"
)

// TestMemberFileTaskStores pins the durable-member path: CommitTask through
// a FileTaskStores factory lands the tree in a per-task store file, queries
// prove against it, re-committing the task replaces the previous file
// instead of tripping the non-empty-store guard, and two task ids that
// differ only in characters a file name cannot hold keep separate files.
func TestMemberFileTaskStores(t *testing.T) {
	ps := corePS(t)
	dir := t.TempDir()
	m := NewMember(ps, supplychain.NewParticipant("v1"),
		WithTaskStores(FileTaskStores(dir)))
	if err := m.Participant().RecordTrace(poc.Trace{Product: "id-1", Data: []byte("op=process")}); err != nil {
		t.Fatal(err)
	}
	credential, err := m.CommitTask("task/1")
	if err != nil {
		t.Fatalf("CommitTask: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.HasPrefix(entries[0].Name(), "task-") {
		t.Fatalf("expected one task store file in %s, got %v", dir, entries)
	}
	if strings.ContainsAny(entries[0].Name(), "/\\") {
		t.Fatalf("unsanitized store file name %q", entries[0].Name())
	}
	resp, err := m.Query(context.Background(), "task/1", "id-1", Good)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if resp.Claim != ClaimProcessed {
		t.Fatalf("Claim = %v, want processed", resp.Claim)
	}
	if _, err := poc.Verify(context.Background(), ps, credential, "id-1", resp.Proof); err != nil {
		t.Fatalf("Verify: %v", err)
	}

	// Re-commit of the same task must discard the old file, not collide.
	if _, err := m.CommitTask("task/1"); err != nil {
		t.Fatalf("re-CommitTask: %v", err)
	}

	// "lot/7" and "lot_7" must not share a file: committing the second must
	// not remove the first task's tree.
	for _, id := range []string{"lot/7", "lot_7"} {
		if _, err := m.CommitTask(id); err != nil {
			t.Fatalf("CommitTask(%q): %v", id, err)
		}
	}
	if entries, err = os.ReadDir(dir); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("three tasks left %d store files, want 3: %v", len(entries), entries)
	}
}

// TestCryptoConfigStoreFlags pins the flag translation: backend names map to
// factories (or errors), and MemberOptions carries them through.
func TestCryptoConfigStoreFlags(t *testing.T) {
	var c CryptoConfig
	if f, err := c.TaskStores(); err != nil || f != nil {
		t.Fatalf("default TaskStores = (%v, %v), want (nil, nil)", f, err)
	}
	c.Store = "mem"
	if f, err := c.TaskStores(); err != nil || f != nil {
		t.Fatalf("mem TaskStores = (%v, %v), want (nil, nil)", f, err)
	}
	c.Store = "bogus"
	if _, err := c.TaskStores(); err == nil {
		t.Fatal("bogus backend accepted")
	}
	if _, err := c.MemberOptions(); err == nil {
		t.Fatal("MemberOptions swallowed the bad backend")
	}
	c.Store = "file"
	c.StoreDir = filepath.Join(t.TempDir(), "stores")
	factory, err := c.TaskStores()
	if err != nil || factory == nil {
		t.Fatalf("file TaskStores = (%v, %v)", factory, err)
	}
	kv, err := factory("task 1:weird/id")
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	defer kv.Close()
	entries, err := os.ReadDir(c.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || strings.ContainsAny(entries[0].Name(), " /:") {
		t.Fatalf("expected one sanitized store file, got %v", entries)
	}
	opts, err := c.MemberOptions()
	if err != nil {
		t.Fatalf("MemberOptions: %v", err)
	}
	if len(opts) != 2 {
		t.Fatalf("MemberOptions returned %d options, want agg + stores", len(opts))
	}
}
