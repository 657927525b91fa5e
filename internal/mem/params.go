package mem

// The memory-system cost model, in processor cycles. The values are
// calibrated so that the latencies the Alewife papers report (roughly
// 10-cycle local miss, ~40-cycle clean remote miss at small machine sizes,
// 5-cycle message-handler entry elsewhere) come out of the composed model.
// The only memory parameter experiments vary, the LimitLESS hardware
// pointer count, is NewFabric's hwPointers argument.
const (
	CacheHit  = 1 // charge per hit access (load or store)
	FillToUse = 1 // cycles from fill completion to the stalled access retiring

	dirCycles = 3 // directory lookup/update occupancy at the home
	memCycles = 6 // DRAM access at the home (read for grant, write for WB)
	localMiss = 3 // extra requester-side cycles to start/finish any miss

	// LimitLESS directory software costs.
	trapCycles    = 50 // software trap cost at the home on overflow insert
	swInvalCycles = 8  // per-sharer software cost invalidating an overflowed entry

	// txnLimit bounds the requester transaction buffer (outstanding misses
	// and prefetches).
	txnLimit = 4

	// prefetchWritePenalty models Alewife's transaction-store artifact: a
	// store to a line most recently filled by a non-binding *shared*
	// prefetch forces the buffered transaction to retire and the write to
	// re-issue, costing roughly a round trip on top of the upgrade. This is
	// what makes the paper's prefetching copy loop slower than the plain
	// one (Figure 7) while leaving read-only prefetching (accum, Figure 8)
	// profitable.
	prefetchWritePenalty = 64

	// Protocol packet sizes in bytes (header included).
	reqBytes  = 8             // RREQ/WREQ
	ctlBytes  = 8             // INV/ACK/RECALL and data-less grants
	dataBytes = 8 + LineBytes // grants carrying a line, WB, recall data
)
