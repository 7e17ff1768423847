package vm

// Running reports whether the VM is executing (false while paused).
func (v *VM) Running() bool { return v.running }
