package can

import (
	"encoding/json"

	"wavnet/internal/netsim"
)

// Resource is a soft-state item stored in the CAN: WAVNet rendezvous
// servers store host records keyed by their normalized attribute vectors.
// Value is opaque to the overlay; brokers store a record in their own
// control codec's layout.
type Resource struct {
	ID    string `json:"id"`
	Key   Point  `json:"key"`
	Value []byte `json:"value"`
	// Expires is the absolute sim time (ns) past which the record is
	// dropped; zero means no expiry.
	Expires int64 `json:"expires,omitempty"`
}

// Message kinds.
const (
	kindJoinRoute   = "join-route"
	kindJoinReply   = "join-reply"
	kindHello       = "hello"
	kindPut         = "put"
	kindPutAck      = "put-ack"
	kindLookup      = "lookup"
	kindLookupReply = "lookup-reply"
	kindError       = "error"
)

// neighborWire is the neighbor description exchanged in messages.
type neighborWire struct {
	Addr  netsim.Addr `json:"addr"`
	Zones []Zone      `json:"zones"`
}

// wireMsg is the single JSON envelope for all CAN traffic. Unused fields
// are omitted per kind.
type wireMsg struct {
	Kind   string      `json:"kind"`
	ID     uint64      `json:"id,omitempty"`     // RPC correlation
	Origin netsim.Addr `json:"origin,omitempty"` // RPC reply-to
	Target Point       `json:"target,omitempty"` // routing destination
	Hops   int         `json:"hops,omitempty"`

	Zones     []Zone         `json:"zones,omitempty"`
	Neighbors []neighborWire `json:"neighbors,omitempty"`
	Resources []Resource     `json:"resources,omitempty"`
	Resource  *Resource      `json:"resource,omitempty"`
	Err       string         `json:"err,omitempty"`
}

func encode(m *wireMsg) []byte {
	b, err := json.Marshal(m)
	if err != nil {
		panic("can: marshal: " + err.Error())
	}
	return b
}

func decode(b []byte) (*wireMsg, error) {
	var m wireMsg
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	return &m, nil
}
