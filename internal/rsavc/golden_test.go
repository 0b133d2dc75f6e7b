package rsavc_test

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"desword/internal/qmercurial"
	"desword/internal/rsavc"
	"desword/internal/zkedb"
)

// golden is a recorded seeded zkedb commitment. The vectors in testdata were
// recorded when every exponentiation here was a plain big.Int.Exp, so they
// pin the fixed-base tables to that arithmetic bit for bit, through the whole
// zkedb stack above them.
type golden struct {
	Params   *rsavc.Params `json:"params"`
	Geometry zkedb.Params  `json:"geometry"`
	Seed     string        `json:"seed"`
	Keys     []string      `json:"keys"`
	ProveKey string        `json:"prove_key"`
	Root     string        `json:"root"`  // hex Commitment.Bytes
	Proof    string        `json:"proof"` // hex ownership Proof.MarshalBinary
}

func TestGoldenVectors(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden vectors: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var g golden
			if err := json.Unmarshal(raw, &g); err != nil {
				t.Fatal(err)
			}
			if err := g.Params.Rehydrate(); err != nil {
				t.Fatal(err)
			}
			crs := &zkedb.CRS{Params: g.Geometry, Key: &qmercurial.PublicKey{VC: g.Params}}
			if err := crs.Rehydrate(); err != nil {
				t.Fatal(err)
			}
			db := make(map[string][]byte, len(g.Keys))
			for i, k := range g.Keys {
				db[k] = goldenValue(i)
			}
			com, dec, err := crs.Commit(db, zkedb.CommitOptions{Seed: []byte(g.Seed)})
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(com.Bytes()); got != g.Root {
				t.Fatalf("root commitment drifted:\n got %s\nwant %s", got, g.Root)
			}
			proof, err := dec.Prove(context.Background(), g.ProveKey)
			if err != nil {
				t.Fatal(err)
			}
			bin, err := proof.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(bin); got != g.Proof {
				t.Fatal("ownership proof bytes drifted from the recorded vector")
			}
			if _, present, err := crs.Verify(com, g.ProveKey, proof); err != nil || !present {
				t.Fatalf("recorded proof must verify: present=%v err=%v", present, err)
			}
		})
	}
}

// goldenValue is the database value the vectors were recorded with for the
// i-th key.
func goldenValue(i int) []byte {
	return []byte(fmt.Sprintf("op=step%d;station=%d", i, i))
}
