module mmjoin/benchmark

go 1.24

require mmjoin v0.0.0

replace mmjoin => ../
