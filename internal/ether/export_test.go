package ether

// Len reports the number of entries resident, fresh or not (an aged-out
// entry stays until a Lookup or ForgetPort drops it).
func (t *MACTable[P]) Len() int { return len(t.entries) }
