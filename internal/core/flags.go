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
// binaries: one set of commit/prove/store flags, one translation to
// aggregation and member options — the crypto counterpart of
// node.ClientConfig for the transport.
type CryptoConfig struct {
	// CommitWorkers bounds the ZK-EDB commit worker pool. 0 selects one
	// worker per CPU; 1 forces the serial build.
	CommitWorkers int
	// ProofCache bounds the per-task POC proof cache in entries. 0 selects
	// poc.DefaultProofCacheSize; negative disables caching.
	ProofCache int
	// Store selects the node-store backend each task's commitment tree
	// lives in: "mem" (the default in-process map) or "file" (append-only
	// log under StoreDir, durable across restarts). Empty means "mem".
	Store string
	// StoreDir is the directory file-backed trees are kept in, one store
	// file per task. Defaults to "desword-store".
	StoreDir string
	// StoreBatch bounds how many staged records a file store accumulates
	// before auto-committing a batch. 0 selects store.DefaultBatchPuts;
	// negative commits only on explicit flushes.
	StoreBatch int
	// StoreCacheNodes bounds the resident hydrated-node cache per tree.
	// 0 keeps every node resident (always the case for "mem").
	StoreCacheNodes int
}

// RegisterFlags registers the crypto flags on fs (use flag.CommandLine in
// main). Zero values keep the package defaults.
func (c *CryptoConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.CommitWorkers, "commit-workers", c.CommitWorkers,
		"ZK-EDB commit worker pool size (0 = one per CPU, 1 = serial)")
	fs.IntVar(&c.ProofCache, "proof-cache", c.ProofCache,
		"POC proof cache entries per task (0 = default, negative = disabled)")
	fs.StringVar(&c.Store, "store", c.Store,
		`ZK-EDB node store backend: "mem" or "file"`)
	fs.StringVar(&c.StoreDir, "store-dir", c.StoreDir,
		"directory for file-backed ZK-EDB stores, one file per task")
	fs.IntVar(&c.StoreBatch, "store-batch", c.StoreBatch,
		"staged records per file-store batch before auto-commit (0 = default)")
	fs.IntVar(&c.StoreCacheNodes, "store-cache-nodes", c.StoreCacheNodes,
		"resident hydrated tree nodes per task store (0 = unbounded)")
}

// AggOptions translates the configuration into POC aggregation options.
// The node store itself is per task, so it is wired by Member through
// TaskStores, not here.
func (c *CryptoConfig) AggOptions() poc.AggOptions {
	return poc.AggOptions{
		Commit: zkedb.CommitOptions{
			Workers:    c.CommitWorkers,
			CacheNodes: c.StoreCacheNodes,
		},
		ProofCacheSize: c.ProofCache,
	}
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
		return FileTaskStores(dir, c.StoreBatch), nil
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
func FileTaskStores(dir string, batchPuts int) StoreFactory {
	return func(taskID string) (store.KV, error) {
		if err := os.MkdirAll(dir, 0o700); err != nil {
			return nil, fmt.Errorf("core: creating store dir: %w", err)
		}
		path := filepath.Join(dir, "task-"+storeFileName(taskID)+".kv")
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("core: clearing previous store: %w", err)
		}
		kv, err := store.OpenFile(path, store.FileOptions{BatchPuts: batchPuts})
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
