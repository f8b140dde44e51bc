package main

// goldenDigests pins each workload's simulated statistics at the default
// seed and full size: SHA-256 over the digests of one cycle of its
// operations. A change that alters any simulated outcome changes these.
var goldenDigests = map[string]string{
	"fig5a-grid":          "380f8ecc6d091b00a1f5e9ca43d8dc6452e02553d329c28d7ff64ae6e4ef0f2f",
	"churn-sinr-campaign": "ae4227d66abdb73f66224bd72a7ce969d146aaac8dd021cae4ad69c18bce608a",
	"rgg500-faithful":     "4a913a3e0b295a6665124da147080f82ee2d0394e4ceec6eaf85932d49a8b802",
	"rgg20k-scale":        "8e7dc9570269ad05c91e784eec3ba5dc0a223e0e30c1bc6c924ee1bd3cf8da9a",
}
