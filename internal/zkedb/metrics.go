package zkedb

import (
	"strconv"

	"desword/internal/obs"
)

// proofMetrics are the per-geometry proof timing histograms, labelled by the
// tree geometry (q, h) and the proof kind. They are built once per CRS and
// cached, so Prove/VerifyCtx pay one atomic pointer load per call.
type proofMetrics struct {
	proveOwn  *obs.Histogram
	proveNon  *obs.Histogram
	verifyOwn *obs.Histogram
	verifyNon *obs.Histogram
}

// metrics returns the CRS's cached timing histograms, building them on first
// use (the CRS may have arrived over the wire via JSON, which bypasses
// CRSGen). A lost creation race is harmless: the registry returns the same
// underlying series to every builder.
func (c *CRS) metrics() *proofMetrics {
	if m := c.pm.Load(); m != nil {
		return m
	}
	q := strconv.Itoa(c.Params.Q)
	h := strconv.Itoa(c.Params.H)
	m := &proofMetrics{
		proveOwn: obs.Default.Histogram("desword_proof_generate_seconds",
			"ZK-EDB proof generation time by proof kind and tree geometry.", nil,
			"kind", "ownership", "q", q, "h", h),
		proveNon: obs.Default.Histogram("desword_proof_generate_seconds",
			"ZK-EDB proof generation time by proof kind and tree geometry.", nil,
			"kind", "nonownership", "q", q, "h", h),
		verifyOwn: obs.Default.Histogram("desword_proof_verify_seconds",
			"ZK-EDB proof verification time by proof kind and tree geometry.", nil,
			"kind", "ownership", "q", q, "h", h),
		verifyNon: obs.Default.Histogram("desword_proof_verify_seconds",
			"ZK-EDB proof verification time by proof kind and tree geometry.", nil,
			"kind", "nonownership", "q", q, "h", h),
	}
	c.pm.CompareAndSwap(nil, m)
	return c.pm.Load()
}

// prove selects the generation histogram for a proof kind.
func (m *proofMetrics) prove(kind ProofKind) *obs.Histogram {
	if kind == ProofOwnership {
		return m.proveOwn
	}
	return m.proveNon
}

// verify selects the verification histogram for a proof kind.
func (m *proofMetrics) verify(kind ProofKind) *obs.Histogram {
	if kind == ProofOwnership {
		return m.verifyOwn
	}
	return m.verifyNon
}
