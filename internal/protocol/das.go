package protocol

// idleInstance is the Instance of the paper's pair: the protectionless
// GCN-DAS of Figure 2 and the 3-phase SLP-aware variant of Figures 2-4.
// Both are pure-TDMA families — all their behaviour lives in the slot
// schedule the setup built, and their table entries differ only in the
// two booleans the network consults (SearchPhase and UsesSearchDistance)
// — so there is nothing to rewind and nothing to start.
type idleInstance struct{}

func (idleInstance) Reset(*Env, Params, uint64) {}
func (idleInstance) StartData(Host) error       { return nil }
