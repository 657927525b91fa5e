package swdsm

// HitCycles is what a software cache hit charges: the Figure 1 check and
// the cache probe.
const HitCycles = checkCycles + cacheLookup
