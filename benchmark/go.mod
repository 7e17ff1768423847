module wavnet/benchmark

go 1.21

require wavnet v0.0.0

replace wavnet => ../
