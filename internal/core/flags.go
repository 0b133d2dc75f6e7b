package core

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"desword/internal/poc"
	"desword/internal/zkedb"
	"desword/internal/zkedb/store"
)

// CryptoConfig is the shared crypto-engine configuration of the cmd
// binaries: one set of node-store flags, one translation to aggregation and
// member options — the crypto counterpart of node.ClientConfig for the
// transport. The commit pool is always GOMAXPROCS wide and every DPOC keeps
// a poc.DefaultProofCacheSize proof cache.
type CryptoConfig struct {
	// Store selects the node-store backend each task's commitment tree
	// lives in: "mem" (the default in-process map) or "file" (append-only
	// log under StoreDir, durable across restarts). Empty means "mem".
	Store string
	// StoreDir is the directory file-backed trees are kept in, one store
	// file per task. Defaults to "desword-store".
	StoreDir string
	// StoreCacheNodes bounds the resident hydrated-node cache per tree.
	// 0 keeps every node resident (always the case for "mem").
	StoreCacheNodes int
}

// RegisterFlags registers the crypto flags on fs (use flag.CommandLine in
// main). Zero values keep the package defaults.
func (c *CryptoConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Store, "store", c.Store,
		`ZK-EDB node store backend: "mem" or "file"`)
	fs.StringVar(&c.StoreDir, "store-dir", c.StoreDir,
		"directory for file-backed ZK-EDB stores, one file per task")
	fs.IntVar(&c.StoreCacheNodes, "store-cache-nodes", c.StoreCacheNodes,
		"resident hydrated tree nodes per task store (0 = unbounded)")
}

// AggOptions translates the configuration into POC aggregation options.
// The node store itself is per task, so it is wired by Member through
// TaskStores, not here.
func (c *CryptoConfig) AggOptions() poc.AggOptions {
	return poc.AggOptions{Commit: zkedb.CommitOptions{CacheNodes: c.StoreCacheNodes}}
}

// TaskStores translates the configuration into a per-task store factory:
// nil for the in-memory default, a FileTaskStores factory for "file".
func (c *CryptoConfig) TaskStores() (StoreFactory, error) {
	switch c.Store {
	case "", "mem":
		return nil, nil
	case "file":
		dir := c.StoreDir
		if dir == "" {
			dir = "desword-store"
		}
		return FileTaskStores(dir), nil
	default:
		return nil, fmt.Errorf("core: unknown store backend %q (want mem or file)", c.Store)
	}
}

// MemberOptions translates the configuration into Member options.
func (c *CryptoConfig) MemberOptions() ([]MemberOption, error) {
	opts := []MemberOption{WithAggOptions(c.AggOptions())}
	factory, err := c.TaskStores()
	if err != nil {
		return nil, err
	}
	if factory != nil {
		opts = append(opts, WithTaskStores(factory))
	}
	return opts, nil
}

// FileTaskStores returns a StoreFactory keeping one append-only store file
// per task under dir (created on first use, mode 0700 — the tree holds
// every secret the participant has). Re-committing a task discards the
// task's previous file first: a fresh Commit means a fresh tree, and
// zkedb refuses to commit into a non-empty store.
func FileTaskStores(dir string) StoreFactory {
	return func(taskID string) (store.KV, error) {
		if err := os.MkdirAll(dir, 0o700); err != nil {
			return nil, fmt.Errorf("core: creating store dir: %w", err)
		}
		path := filepath.Join(dir, "task-"+storeFileName(taskID)+".kv")
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("core: clearing previous store: %w", err)
		}
		kv, err := store.OpenFile(path, store.FileOptions{})
		if err != nil {
			return nil, fmt.Errorf("core: opening task store: %w", err)
		}
		return kv, nil
	}
}

// storeFileName maps a task ID onto a safe file-name fragment, one to one:
// bytes in [A-Za-z0-9.-] stay as they are and every other byte, '_'
// included, becomes '_' and two hex digits. Distinct tasks therefore never
// share a store file, so re-committing one task cannot remove another's.
func storeFileName(taskID string) string {
	var b strings.Builder
	for i := 0; i < len(taskID); i++ {
		c := taskID[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '.':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "_%02x", c)
		}
	}
	return b.String()
}
