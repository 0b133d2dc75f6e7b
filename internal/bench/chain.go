package bench

import (
	"context"
	"errors"
	"sort"

	"desword/internal/core"
	"desword/internal/node"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
)

// This file holds the TCP deployment the end-to-end experiments (E8, E14)
// share: a linear supply chain with one distribution of products, every
// member behind its own participant server on localhost, and proxies stood
// up over it on demand.

// chain is a line graph p0 → … → p(n-1) whose members are served over TCP.
// The chain outlives the proxies served over it: the supply chain stays
// fixed while the proxy tier varies.
type chain struct {
	ps       *poc.PublicParams
	members  map[poc.ParticipantID]*core.Member
	dist     *core.DistributionResult
	dir      map[poc.ParticipantID]string
	products []poc.ProductID // sorted
	servers  []*node.ParticipantServer
}

// newChain mints products tags (prefix1, prefix2, …), distributes them
// from p0 down a chain of n participants, and serves every member on a
// loopback port.
func newChain(ps *poc.PublicParams, n, products int, prefix string) (*chain, error) {
	g, parts := supplychain.LineGraph(n)
	members := make(map[poc.ParticipantID]*core.Member, n)
	for id, p := range parts {
		members[id] = core.NewMember(ps, p)
	}
	tags, err := supplychain.MintTags(prefix, products)
	if err != nil {
		return nil, err
	}
	dist, err := core.RunDistribution(ps, g, members, "p0", tags, nil, supplychain.FirstChildSplitter, "task-"+prefix)
	if err != nil {
		return nil, err
	}
	c := &chain{ps: ps, members: members, dist: dist, dir: make(map[poc.ParticipantID]string, n)}
	for id := range dist.Ground.Paths {
		c.products = append(c.products, id)
	}
	sort.Slice(c.products, func(i, j int) bool { return c.products[i] < c.products[j] })
	for id, m := range members {
		srv, serr := node.ServeParticipant(context.Background(), "127.0.0.1:0", m)
		if serr != nil {
			return nil, errors.Join(serr, c.Close())
		}
		c.servers = append(c.servers, srv)
		c.dir[id] = srv.Addr()
	}
	return c, nil
}

// Close stops every participant server.
func (c *chain) Close() error {
	errs := make([]error, len(c.servers))
	for i, s := range c.servers {
		errs[i] = s.Close()
	}
	return errors.Join(errs...)
}

// deployment is one proxy served over a chain, with the application's
// client in front of it.
type deployment struct {
	proxy     *core.Proxy
	client    *node.ProxyClient
	server    *node.ProxyServer
	directory *node.Directory
}

// serve stands up a proxy over the chain, its TCP server with serverOpts,
// and a client dialing it with clientOpts, then registers the chain's POC
// list through the client.
func (c *chain) serve(serverOpts []node.Option, clientOpts ...node.Option) (*deployment, error) {
	directory := node.DirectoryResolver(c.dir)
	proxy := core.NewProxyWithConfig(c.ps, reputation.DefaultStrategy(), directory.Resolver(), core.ProxyConfig{})
	server, err := node.ServeProxy(context.Background(), "127.0.0.1:0", proxy, serverOpts...)
	if err != nil {
		return nil, errors.Join(err, directory.Close())
	}
	d := &deployment{
		proxy:     proxy,
		client:    node.NewProxyClient(server.Addr(), clientOpts...),
		server:    server,
		directory: directory,
	}
	if err := d.client.RegisterList(context.Background(), c.dist.TaskID, c.dist.List); err != nil {
		return nil, errors.Join(err, d.Close())
	}
	return d, nil
}

// Close releases the client, stops the proxy server and drops the proxy's
// participant clients.
func (d *deployment) Close() error {
	return errors.Join(d.client.Close(), d.server.Close(), d.directory.Close())
}
