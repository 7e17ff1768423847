package ether

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{Dst: SeqMAC(1), Src: SeqMAC(2), Type: TypeIPv4, Payload: []byte("payload")}
	got, err := UnmarshalFrame(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Dst != f.Dst || got.Src != f.Src || got.Type != f.Type || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
	}
	if f.WireLen() != HeaderLen+7 {
		t.Fatalf("WireLen = %d", f.WireLen())
	}
}

func TestFrameUnmarshalShort(t *testing.T) {
	if _, err := UnmarshalFrame(make([]byte, 13)); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestPropertyFrameRoundTrip(t *testing.T) {
	f := func(dst, src [6]byte, typ uint16, payload []byte) bool {
		fr := &Frame{Dst: MAC(dst), Src: MAC(src), Type: typ, Payload: payload}
		got, err := UnmarshalFrame(fr.Marshal())
		return err == nil && got.Dst == fr.Dst && got.Src == fr.Src &&
			got.Type == fr.Type && bytes.Equal(got.Payload, fr.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := &ARP{
		Op:        ARPReply,
		SenderMAC: SeqMAC(3),
		SenderIP:  netsim.MustParseIP("10.0.0.3"),
		TargetMAC: SeqMAC(4),
		TargetIP:  netsim.MustParseIP("10.0.0.4"),
	}
	got, err := UnmarshalARP(a.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *a {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, a)
	}
}

func TestGratuitousARP(t *testing.T) {
	ip := netsim.MustParseIP("10.0.0.9")
	f := GratuitousARP(SeqMAC(9), ip)
	if !f.Dst.IsBroadcast() {
		t.Fatal("gratuitous ARP must broadcast")
	}
	a, err := UnmarshalARP(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if a.SenderIP != ip || a.TargetIP != ip {
		t.Fatalf("gratuitous ARP sender/target IPs: %v %v", a.SenderIP, a.TargetIP)
	}
}

func TestMACHelpers(t *testing.T) {
	if !Broadcast.IsBroadcast() || !Broadcast.IsMulticast() {
		t.Fatal("broadcast flags wrong")
	}
	if SeqMAC(1).IsMulticast() {
		t.Fatal("SeqMAC must be unicast")
	}
	if SeqMAC(1) == SeqMAC(2) {
		t.Fatal("SeqMAC collision")
	}
	if SeqMAC(7).String() == "" {
		t.Fatal("empty MAC string")
	}
}

func TestMACTableLearnLookupAge(t *testing.T) {
	eng := sim.NewEngine(1)
	tbl := NewMACTable[int](eng, 10*time.Second)
	tbl.Learn(SeqMAC(1), 42)
	if p, ok := tbl.Lookup(SeqMAC(1)); !ok || p != 42 {
		t.Fatalf("lookup = %v,%v", p, ok)
	}
	eng.RunUntil(sim.Time(11 * time.Second))
	if _, ok := tbl.Lookup(SeqMAC(1)); ok || tbl.Len() != 0 {
		t.Fatalf("aged entry: lookup hit %v, %d resident; want a miss that drops it", ok, tbl.Len())
	}
	tbl.Learn(SeqMAC(1), 43)
	if p, ok := tbl.Lookup(SeqMAC(1)); !ok || p != 43 {
		t.Fatalf("re-learn after aging: lookup = %v,%v", p, ok)
	}
	tbl.Learn(Broadcast, 1)
	if _, ok := tbl.Lookup(Broadcast); ok {
		t.Fatal("multicast learned")
	}
}

func TestMACTableForgetPort(t *testing.T) {
	eng := sim.NewEngine(1)
	tbl := NewMACTable[string](eng, 0)
	tbl.Learn(SeqMAC(1), "tun-a")
	tbl.Learn(SeqMAC(2), "tun-a")
	tbl.Learn(SeqMAC(3), "tun-b")
	tbl.ForgetPort("tun-a")
	if tbl.Len() != 1 {
		t.Fatalf("len = %d after ForgetPort", tbl.Len())
	}
	if _, ok := tbl.Lookup(SeqMAC(3)); !ok {
		t.Fatal("unrelated entry lost")
	}

	// Per VNI: ForgetPort flushes the port in every network, DropVNI one
	// network, and both leave the MAC learnable again.
	vt := NewVNITable[string](eng, 0)
	for vni := uint32(1); vni <= 2; vni++ {
		vt.Learn(vni, SeqMAC(1), "tun-a")
		vt.Learn(vni, SeqMAC(2), "tun-b")
	}
	vt.ForgetPort("tun-a")
	for vni := uint32(1); vni <= 2; vni++ {
		if _, ok := vt.Lookup(vni, SeqMAC(1)); ok {
			t.Fatalf("vni %d: entry on the forgotten port survived", vni)
		}
		if p, ok := vt.Lookup(vni, SeqMAC(2)); !ok || p != "tun-b" {
			t.Fatalf("vni %d: unrelated entry = %q,%v", vni, p, ok)
		}
	}
	vt.DropVNI(2)
	if _, ok := vt.Lookup(2, SeqMAC(2)); ok {
		t.Fatal("entry survived DropVNI")
	}
	if _, ok := vt.Lookup(1, SeqMAC(2)); !ok {
		t.Fatal("DropVNI reached another network")
	}
	vt.Learn(1, SeqMAC(1), "tun-c")
	vt.Learn(2, SeqMAC(1), "tun-d")
	if p, ok := vt.Lookup(1, SeqMAC(1)); !ok || p != "tun-c" {
		t.Fatalf("re-learn after ForgetPort = %q,%v", p, ok)
	}
	if p, ok := vt.Lookup(2, SeqMAC(1)); !ok || p != "tun-d" {
		t.Fatalf("re-learn after DropVNI = %q,%v", p, ok)
	}
}

// threePortBridge wires three stub devices to a bridge and returns their
// receive logs.
func threePortBridge(eng *sim.Engine) (*Bridge, []*BridgePort, []*[]*Frame) {
	b := NewBridge(eng, "br0", 10*time.Microsecond)
	var ports []*BridgePort
	var logs []*[]*Frame
	for _, name := range []string{"p0", "p1", "p2"} {
		p := b.AddPort(name)
		log := &[]*Frame{}
		p.SetRecv(func(f *Frame) { *log = append(*log, f) })
		ports = append(ports, p)
		logs = append(logs, log)
	}
	return b, ports, logs
}

func TestBridgeFloodsUnknownThenForwards(t *testing.T) {
	eng := sim.NewEngine(1)
	_, ports, logs := threePortBridge(eng)
	macA, macB := SeqMAC(10), SeqMAC(11)

	// Unknown destination: flood to all but ingress.
	ports[0].Send(&Frame{Dst: macB, Src: macA, Type: TypeIPv4, Payload: []byte("x")})
	eng.Run()
	if len(*logs[0]) != 0 || len(*logs[1]) != 1 || len(*logs[2]) != 1 {
		t.Fatalf("flood delivery: %d %d %d", len(*logs[0]), len(*logs[1]), len(*logs[2]))
	}

	// B replies from port 2: A is now learned, so delivery is unicast.
	ports[2].Send(&Frame{Dst: macA, Src: macB, Type: TypeIPv4, Payload: []byte("y")})
	eng.Run()
	if len(*logs[0]) != 1 || len(*logs[1]) != 1 {
		t.Fatalf("reply delivery: %d %d", len(*logs[0]), len(*logs[1]))
	}

	// A to B again: B was learned on port 2 — unicast, no flood.
	ports[0].Send(&Frame{Dst: macB, Src: macA, Type: TypeIPv4, Payload: []byte("z")})
	eng.Run()
	if len(*logs[1]) != 1 {
		t.Fatal("frame flooded despite learned destination")
	}
	if len(*logs[2]) != 2 {
		t.Fatalf("unicast delivery failed: %d", len(*logs[2]))
	}
}

func TestBridgeBroadcast(t *testing.T) {
	eng := sim.NewEngine(1)
	_, ports, logs := threePortBridge(eng)
	ports[1].Send(&Frame{Dst: Broadcast, Src: SeqMAC(1), Type: TypeARP})
	eng.Run()
	if len(*logs[0]) != 1 || len(*logs[1]) != 0 || len(*logs[2]) != 1 {
		t.Fatalf("broadcast delivery: %d %d %d", len(*logs[0]), len(*logs[1]), len(*logs[2]))
	}
}

func TestBridgeRemovePort(t *testing.T) {
	eng := sim.NewEngine(1)
	b, ports, logs := threePortBridge(eng)
	macA := SeqMAC(20)
	ports[0].Send(&Frame{Dst: Broadcast, Src: macA, Type: TypeARP}) // learn A@p0
	eng.Run()
	b.RemovePort(ports[0])
	// Frames to A now flood (entry flushed) and nothing reaches the dead port.
	ports[1].Send(&Frame{Dst: macA, Src: SeqMAC(21), Type: TypeIPv4})
	eng.Run()
	if len(*logs[0]) != 0 { // p0 sent the broadcast, so it never received anything
		t.Fatalf("dead port received frames: %d", len(*logs[0]))
	}
	if len(*logs[2]) != 2 {
		t.Fatalf("flood after flush missing: %d", len(*logs[2]))
	}
}

func TestBridgeMigrationRelearn(t *testing.T) {
	// The live-migration critical path: a MAC moves ports, the gratuitous
	// ARP must re-point the table immediately.
	eng := sim.NewEngine(1)
	_, ports, logs := threePortBridge(eng)
	vm := SeqMAC(30)
	ports[1].Send(&Frame{Dst: Broadcast, Src: vm, Type: TypeARP}) // VM at p1
	eng.Run()
	// VM "migrates" to p2 and announces itself.
	ports[2].Send(GratuitousARP(vm, netsim.MustParseIP("10.0.0.30")))
	eng.Run()
	// Traffic to the VM must now reach p2 only.
	before2 := len(*logs[2])
	before1 := len(*logs[1])
	ports[0].Send(&Frame{Dst: vm, Src: SeqMAC(31), Type: TypeIPv4})
	eng.Run()
	if len(*logs[1]) != before1 {
		t.Fatal("frame still delivered to the old port")
	}
	if len(*logs[2]) != before2+1 {
		t.Fatal("frame not delivered to the new port")
	}
}

func TestPipe(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPipe(eng, time.Millisecond)
	var got *Frame
	var at sim.Time
	p.B.SetRecv(func(f *Frame) { got = f; at = eng.Now() })
	p.A.Send(&Frame{Dst: SeqMAC(1), Src: SeqMAC(2), Type: TypeIPv4})
	eng.Run()
	if got == nil || at != sim.Time(time.Millisecond) {
		t.Fatalf("pipe delivery got=%v at=%v", got, at)
	}
}
