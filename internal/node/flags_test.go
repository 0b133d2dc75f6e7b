package node

import (
	"flag"
	"reflect"
	"testing"
)

// TestClientConfigFlagSurface pins the transport flags every binary shares.
// Retries, backoff, endpoint cooldown and the idle reap are fixed in
// pool.go; adding a flag here means updating this test and README's
// client-transport table together.
func TestClientConfigFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("client", flag.ContinueOnError)
	var c ClientConfig
	c.RegisterFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if want := []string{"pool-size", "timeout"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ClientConfig registers %v, want %v", got, want)
	}
}
