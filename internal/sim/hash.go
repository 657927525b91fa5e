package sim

// SplitMix64 is splitmix64's finalizer: a cheap, well-distributed 64-bit
// scrambler. It is the simulator's one seeded hash — the network's
// per-packet fault verdicts, stress seed derivation and the explorer's
// protocol-state digests all draw from it — so a value derived from a
// seed is the same whichever layer derives it.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
