package rendezvous

// Encode serializes a message into a fresh slice.
func Encode(m *Msg) []byte { return AppendMsg(nil, m) }
