package ipstack

import "wavnet/internal/netsim"

// Addr returns the socket's full address.
func (u *UDPSock) Addr() netsim.Addr { return netsim.Addr{IP: u.stack.ip, Port: u.port} }
