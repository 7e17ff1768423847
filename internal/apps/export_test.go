package apps

// MBps is the transfer rate in megabytes per second.
func (r *FetchResult) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed.Seconds()
}
