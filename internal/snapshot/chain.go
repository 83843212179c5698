package snapshot

import (
	"fmt"

	"genxio/internal/catalog"
	"genxio/internal/rt"
)

// ChainGen is one link of a delta chain: a committed generation's base
// name, its manifest, and its catalog (nil only if the blob failed to
// load — callers that need indexed reads treat that as a broken link).
type ChainGen struct {
	Base     string
	Manifest *Manifest
	Catalog  *catalog.Catalog
}

// maxChainDepth bounds the chain walk against manifests whose recorded
// depths form an unbounded (or cyclic) ancestry. Real chains are capped
// by the FullEvery cadence, orders of magnitude below this.
const maxChainDepth = 1024

// LoadChain loads the generation under base and walks its delta chain
// down to the full generation, newest first: result[0] is base itself
// and the last element has ChainDepth 0. Every link must have a
// loadable, valid manifest — a missing or damaged link is an error (the
// chain cannot resolve panes without it) — and each link's catalog is
// loaded alongside; a catalog that fails to load is an error too, since
// chain resolution is catalog-driven (a delta's files do not spell out
// the inherited panes, so a link's catalog cannot be rebuilt from them).
func LoadChain(fsys rt.FS, base string) ([]ChainGen, error) {
	var chain []ChainGen
	seen := make(map[string]bool)
	for cur := base; ; {
		if seen[cur] {
			return nil, fmt.Errorf("snapshot: chain of %s revisits %s", base, cur)
		}
		if len(chain) >= maxChainDepth {
			return nil, fmt.Errorf("snapshot: chain of %s exceeds depth %d", base, maxChainDepth)
		}
		seen[cur] = true
		m, err := Load(fsys, cur)
		if err != nil {
			return nil, fmt.Errorf("snapshot: chain of %s: link %s: %w", base, cur, err)
		}
		cat, err := catalog.Load(fsys, cur)
		if err != nil {
			return nil, fmt.Errorf("snapshot: chain of %s: link %s catalog: %w", base, cur, err)
		}
		chain = append(chain, ChainGen{Base: cur, Manifest: m, Catalog: cat})
		if m.ChainDepth == 0 {
			return chain, nil
		}
		cur = m.BaseGeneration
	}
}

// ChainCatalogs returns the chain's catalogs newest first, ready for
// catalog.ResolvePanes.
func ChainCatalogs(chain []ChainGen) []*catalog.Catalog {
	cats := make([]*catalog.Catalog, len(chain))
	for i, g := range chain {
		cats[i] = g.Catalog
	}
	return cats
}
