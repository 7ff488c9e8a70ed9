package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

	"epoc/internal/benchcirc"
	"epoc/internal/circuit"
	"epoc/internal/zx"
)

// stage1Corpus is internal/zx's differential population: the 25 named
// circuits, 40 draws of the Fig. 5 random generator across widths and
// depths, and three 48-qubit brickwork circuits.
func stage1Corpus(t *testing.T) map[string]*circuit.Circuit {
	t.Helper()
	out := map[string]*circuit.Circuit{}
	for _, name := range benchcirc.AllNames() {
		c, err := benchcirc.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = c
	}
	for i := 0; i < 40; i++ {
		out[fmt.Sprintf("rand%d", i)] = benchcirc.RandomCircuit(2+i%8, 5+i, int64(i))
	}
	for i := int64(0); i < 3; i++ {
		out[fmt.Sprintf("layered48_%d", i)] = benchcirc.RandomLayered(48, 8, 101000+i)
	}
	return out
}

// opsHash digests a circuit's op list: width, then each op's kind,
// qubits and the bits of every parameter. A nil circuit (a failed
// extraction) has its own digest.
func opsHash(c *circuit.Circuit) string {
	h := sha256.New()
	if c == nil {
		h.Write([]byte("no circuit"))
		return hex.EncodeToString(h.Sum(nil)[:8])
	}
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	word(uint64(c.NumQubits))
	for _, op := range c.Ops {
		h.Write([]byte(op.G.Kind))
		word(uint64(len(op.Qubits)))
		for _, q := range op.Qubits {
			word(uint64(q))
		}
		word(uint64(len(op.G.Params)))
		for _, p := range op.G.Params {
			word(math.Float64bits(p))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// extractHash simplifies a fresh diagram of c and digests its
// extraction.
func extractHash(c *circuit.Circuit, simplify func(*zx.Graph)) string {
	g := zx.FromCircuit(c)
	simplify(g)
	out, err := g.ToCircuit()
	if err != nil {
		return opsHash(nil)
	}
	return opsHash(out)
}

// stage1Pins holds, per corpus circuit, the digests of the Simplify
// extraction, the FullSimplify extraction and zxOptimize's choice.
// Any change to the ZX rewrites, the extractor or the candidate stream
// that moves one op or one parameter bit shows here.
var stage1Pins = map[string][3]string{
	"adder":       {"16718e50081b0925", "f0cf5d5e19fcbc88", "04b2a5f58fe799ed"},
	"bb84":        {"d58335ffed87e1b4", "d58335ffed87e1b4", "75e5e81511a3f176"},
	"bv":          {"34002f10ab963a97", "34002f10ab963a97", "b5a57d03995d8835"},
	"cc":          {"4242dd88f5d44bdb", "4242dd88f5d44bdb", "184917509824ed33"},
	"decod24":     {"f99049ba772847ed", "442328703cec910c", "98467ec2c829376f"},
	"dj":          {"b23dcb3ed23f3f70", "b23dcb3ed23f3f70", "b2d6b6f90bd0c443"},
	"dnn":         {"51b71eb3a9eb6501", "51b71eb3a9eb6501", "f906907f92e2c86b"},
	"fredkin":     {"dd7a3f5198c6b753", "73b78ac5390118b0", "fb8b781d2641db1b"},
	"ghz":         {"bec0ab33a217f584", "bec0ab33a217f584", "f0d3701cf9c99c4f"},
	"grover":      {"3c8bfe45b78766e1", "442328703cec910c", "0cf12d6886e6003c"},
	"ham7":        {"d5173c66e194e9f1", "442328703cec910c", "56dcc669eba8bd83"},
	"hs4":         {"baee5b994d22887f", "baee5b994d22887f", "b681ed4d02edcaca"},
	"ising":       {"de53505e8206c27b", "993a59d6aa7eb64d", "d4eb81916d484f82"},
	"layered48_0": {"34407f64e95a662d", "34407f64e95a662d", "eb7f33e6edaa68a4"},
	"layered48_1": {"f38dd9ff2c513c15", "f38dd9ff2c513c15", "ececa8ab2cbb3f08"},
	"layered48_2": {"ca96971b234fd4eb", "ca96971b234fd4eb", "f2c207c2beb72002"},
	"mult":        {"5abd07e380b1f8b6", "442328703cec910c", "72094895140b4b84"},
	"qaoa":        {"e35087bc99c49015", "442328703cec910c", "7ec980e638be5bf9"},
	"qec5":        {"11b407affbb86d04", "f5f908cd5625a120", "743114d4e7174413"},
	"qft":         {"14409267feb7f339", "164aedc52ae73ce0", "efbceaf5d980caa4"},
	"qpe":         {"bed0a180625b59d3", "ec12c32c3ca9bd9e", "68e95a591f6ad30a"},
	"qwalk":       {"9476b29861100690", "32cbe6c205aa1608", "cbd2e60f95442003"},
	"rand0":       {"a4a4d4c0aa57cff1", "a4a4d4c0aa57cff1", "bfd146ee3027265d"},
	"rand1":       {"c448de996535f444", "c448de996535f444", "7c45fb7d1c6c3645"},
	"rand10":      {"03a3a9aefa45c350", "8a3a6c8fa20c5f66", "53de9fb654922263"},
	"rand11":      {"d477fad829630158", "d477fad829630158", "826993bbb6ef1f0a"},
	"rand12":      {"15a348ab59c155f3", "15a348ab59c155f3", "1a9241735b0c34cc"},
	"rand13":      {"0a001cf9d4020528", "0a001cf9d4020528", "c51280cd36f086f2"},
	"rand14":      {"1dec2a7812921e18", "a454b5c296b61ac9", "e81c2984ca3ad4eb"},
	"rand15":      {"b4ba20c1e22f85bd", "005161241da79806", "56f6d4c713335852"},
	"rand16":      {"7dc222ea5d64d4f0", "7dc222ea5d64d4f0", "7c0bfe0e8fcfc247"},
	"rand17":      {"bceaadeac9d5ae47", "bceaadeac9d5ae47", "d6f86f6967cfb018"},
	"rand18":      {"4374303d62daca1c", "592fe989d9192b89", "933529b047527893"},
	"rand19":      {"ccadb895b5f29def", "32422f234a360551", "d5721fe46f2a56ce"},
	"rand2":       {"9d531a942cc548a1", "9d531a942cc548a1", "594c98591880528f"},
	"rand20":      {"6613cb58658e5258", "442328703cec910c", "b0078293512e6d54"},
	"rand21":      {"fa0ddb4b3e3491f3", "d5eadad851682b35", "c9a846795feff960"},
	"rand22":      {"8fcb2f6922866a35", "536492eccfd8763f", "5b63eae36ec48cb8"},
	"rand23":      {"3482640cae9e3c54", "a669d7cd2a48f73b", "fea631cea2fba34a"},
	"rand24":      {"38566d79edc3d55b", "fa8d05a1edad6b72", "4c531d516d0200e2"},
	"rand25":      {"dac8c8255bdd15e3", "664669e07968a17a", "e634854508221157"},
	"rand26":      {"16d549054b96fa61", "15f668561b3281c4", "cae51b834bf22948"},
	"rand27":      {"7aa2d9949af5477d", "14f1bc0086936f2d", "6c8caa33c880f50a"},
	"rand28":      {"0748f6b09cc6433c", "d3cc0bfe5995df04", "4b31ea3ef931f5e8"},
	"rand29":      {"12e3304d5607c910", "1b80badcafec0b88", "1db169b75d3f7cc8"},
	"rand3":       {"26e8711254aeb39a", "26e8711254aeb39a", "35082515b6fe92ad"},
	"rand30":      {"301d206d2462aca1", "a03cdc77e0eeff32", "97bfe3ca79368899"},
	"rand31":      {"cb44e015bd29821d", "bf336e1fa7f41bb4", "296f616b6809bad4"},
	"rand32":      {"a1e88a7e19cdf11d", "a1e88a7e19cdf11d", "03d600a8a622bfc2"},
	"rand33":      {"464805493eec6866", "12e3c43efc44b768", "8423e5aec53c2eb2"},
	"rand34":      {"a6426cc9f5563e89", "0aa851c81ea4535a", "15b8b4000b3a1cdc"},
	"rand35":      {"f04da8a5679e4f0d", "0c2de0369823b02c", "f7c92b12e77546a9"},
	"rand36":      {"095083da5d138c70", "095083da5d138c70", "96a7ea6ea1e9cb3f"},
	"rand37":      {"2401c0c0f5ff76c1", "9b0f99555954c4c7", "cede73a8e4382df5"},
	"rand38":      {"6a4617d16d8b5a83", "1c073864c1d3d6b7", "daa2ea7d272d76bc"},
	"rand39":      {"4bf994c9bf74d9d5", "442328703cec910c", "edc1cee24756b6ed"},
	"rand4":       {"7638bacaef157518", "7638bacaef157518", "30915dadc9cd0328"},
	"rand5":       {"4c9613bd64100f36", "4c9613bd64100f36", "f24c5a4e8d5442ac"},
	"rand6":       {"b1fb1545a00f9aed", "b8bf8532a21e312c", "929e4a3780c9108d"},
	"rand7":       {"4a076249fcf23949", "4a076249fcf23949", "bbaedb186efcf8ae"},
	"rand8":       {"23ce9632a51a73f6", "23ce9632a51a73f6", "8797cd37c9942cef"},
	"rand9":       {"ef11d89b946349fc", "ef11d89b946349fc", "40d5aec647a9d7dd"},
	"simon":       {"7e25a20f05cec1f8", "7e25a20f05cec1f8", "a43d046298cde8d9"},
	"supremacy":   {"755ccdd84c4b6d27", "755ccdd84c4b6d27", "b737b01047e007b2"},
	"teleport":    {"7cd84a00ba001f5d", "0e16d2697826f43e", "e56ec2baf74aa01d"},
	"toffoli":     {"ab58e3d7e525a68a", "442328703cec910c", "a45ef4bdacdbaa89"},
	"vqe":         {"1c9cdaa0c30c9ae0", "442328703cec910c", "5b34d3b4ee7e412e"},
	"wstate":      {"7031c6c775a7635a", "7031c6c775a7635a", "77b25d374d20c1ef"},
}

// TestStage1Pinned: stage 1's extractions and its chosen circuit are
// byte-identical to the pinned digests on the whole differential
// corpus.
func TestStage1Pinned(t *testing.T) {
	corpus := stage1Corpus(t)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(stage1Pins) != len(names) {
		t.Errorf("%d pinned circuits, corpus has %d", len(stage1Pins), len(names))
	}
	for _, name := range names {
		c := corpus[name]
		got := [3]string{
			extractHash(c, (*zx.Graph).Simplify),
			extractHash(c, (*zx.Graph).FullSimplify),
			opsHash(zxOptimize(c, nil)),
		}
		if want, ok := stage1Pins[name]; !ok || got != want {
			t.Errorf("%s: digests %q, pinned %q", name, got, want)
		}
	}
}
