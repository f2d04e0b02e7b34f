package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint returns a canonical hash of the labeled graph: two graphs
// have equal fingerprints iff they share the universe size, the active
// vertex set, and the edge set. It is the cache key the serving layer uses
// to deduplicate solver initializations across requests, so it must be
// stable across processes — it hashes the adjacency structure itself, not
// any in-memory representation detail.
//
// The fingerprint is label-sensitive by design: isomorphic graphs with
// different vertex numberings hash differently. Isomorphism-level keys
// come from fingerprinting the canonical form instead (CanonicalForm);
// the serving layer canonicalizes every submitted graph on ingress and
// fingerprints that, once per request.
func (g *Graph) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(g.n))
	h.Write(buf[:])
	writeSet := func(words []uint64) {
		for _, w := range words {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
	}
	writeSet(g.verts.Words())
	g.verts.ForEach(func(v int) bool {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
		writeSet(g.adj[v].Words())
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}
