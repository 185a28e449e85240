package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// renderSHA256 pins the rendered text of every registry and extension
// artifact on the shared evaluation world, each seeded with rng(ID). The
// text is bbrepro's stdout and the body of the server's reports endpoint,
// so a change that moves a column, a star or a skipped-row placeholder
// shows up here even when the canonical JSON does not move.
var renderSHA256 = map[string]string{
	"Fig. 1":  "97a06c38693e69c4fc9d1f9aa732b85f690ad2777101aa0cceeb8f33d541c7cb",
	"Fig. 2":  "2737be3de6381ef791a340b43d1054eb543322754d2f04bcf316b8b7b676c757",
	"Fig. 3":  "ef2fc0181280f825ec388ef6e7fbf83b26b9bf12bdaad95b82ad2b7bfe97611f",
	"Table 1": "f7eb3fd3bafec0cd377ba2deba158d1dae6b398444316442f585c144ec134d73",
	"Fig. 4":  "d6976cc56e3e0415ffd8e5be03cd03b4d602175a032a46f46c4bd414b37b04c4",
	"Fig. 5":  "c1203ea3fcc529c6faaf9489079d22867af19a49b1e5914750d669badddd5354",
	"Table 2": "b959ee5f32f31fe8710e9a3342e1d353c82b9366e48b8a05cf128300be3ef0c9",
	"Fig. 6":  "d868e08d1cff5e0aaa5df2e0fc0387214ccf71529a538bd51f015632b15bc296",
	"Table 3": "b664c3d092026847b845e5bcaea866cb828d802bf395e009afd22d1ce5dcdf33",
	"Table 4": "5f1f36f0827c7a288cb68dca285925c8949c58324ab9235cceb65cad48fb1804",
	"Fig. 7":  "9d302f776b47011235f8b2aa5994915f4cac60df7b19bf9ba4e42857f7e1cfcc",
	"Fig. 8":  "1dd37c1a42f3e70c959dc7809024f2376c2f3c2579ef48bbc599ab829b0ba7ae",
	"Fig. 9":  "aa4d6aa2917f248a66700daa6ff8a82d7d312aa4188eb9ac13679e81615bdc80",
	"Fig. 10": "3d7d7a022e652d6c8a617e719effa91595c31b46b3c1b5336a38f5192f1f7e93",
	"Table 5": "4ce755c8a858bb4b234d0e4900fdc14455d1ae53cfe25effca41e77ae8148744",
	"Table 6": "2f7e9d52d564509cc45a27b7bdffb1f3f0163b536c71f68ba7573ac6466ebf55",
	"Table 7": "1de71de39959973d5746f84feab791f91c25c5efe929d8e38225d3530ff0a6d6",
	"Fig. 11": "e0cbfc2b73445d1d9df1f150264434058bf5a3f3756272538c897ac7550d3747",
	"Table 8": "3a831b34f98b779350add1dcb60002342df164f2dcaae47b7a67dc9b39c3d4bc",
	"Fig. 12": "b02428c1a0dffabbd2d2916060c24d5e82c73225f736e839b0545b5594a39f83",
	"Ext. A":  "36e9ed064a9bef821c0a4a7c4baba66df8d54cf165667e2370804bf08993c9f4",
	"Ext. B":  "bfd0f5ca096e7511355c0bba40685fd796b0be1081b1bad3fd41a55a13832776",
	"Ext. C":  "dd46ea63de0e0368bae579bd8aadf7c521af70a3a1cc732e953f18423e8000c9",
}

func TestRenderPinned(t *testing.T) {
	t.Parallel()
	d := evalData(t)
	entries := append(Registry(), Extensions()...)
	if len(entries) != len(renderSHA256) {
		t.Errorf("%d artifacts, %d pinned renderings", len(entries), len(renderSHA256))
	}
	for _, e := range entries {
		rep, err := e.Run(d, rng(e.ID))
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		sum := sha256.Sum256([]byte(rep.Render()))
		if got := hex.EncodeToString(sum[:]); got != renderSHA256[e.ID] {
			t.Errorf("%s: Render() sha256 = %s, pinned %s", e.ID, got, renderSHA256[e.ID])
		}
	}
}
