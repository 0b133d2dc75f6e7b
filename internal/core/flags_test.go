package core

import (
	"flag"
	"reflect"
	"testing"
)

// registeredFlags returns the names register adds to a fresh FlagSet, in
// lexical order.
func registeredFlags(register func(*flag.FlagSet)) []string {
	fs := flag.NewFlagSet("config", flag.ContinueOnError)
	register(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}

// TestConfigFlagSurface pins the flags the proxy and crypto configs
// register. Every other setting is fixed: the commit pool is GOMAXPROCS
// wide, every DPOC has its proof cache, and the walk probes children one at
// a time. Adding a flag here means updating this test and README's flag
// tables together.
func TestConfigFlagSurface(t *testing.T) {
	var crypto CryptoConfig
	if got, want := registeredFlags(crypto.RegisterFlags), []string{"store", "store-cache-nodes", "store-dir"}; !reflect.DeepEqual(got, want) {
		t.Errorf("CryptoConfig registers %v, want %v", got, want)
	}
	var proxy ProxyConfig
	if got := registeredFlags(proxy.RegisterFlags); len(got) != 0 {
		t.Errorf("ProxyConfig registers %v, want no flags", got)
	}
}
