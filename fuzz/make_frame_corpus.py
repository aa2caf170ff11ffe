"""Writes fuzz/corpus_frame/, the seed corpus of frame_decode_fuzz.

One file per MsgType: the golden payload of that type from
tests/net_golden.h in a frame (request id 1), and for types with an enum,
bool or checked count a second frame (request id 2) carrying a value the
strict decoder must reject. Payload-less requests get one empty frame.

Run from anywhere: python3 fuzz/make_frame_corpus.py
"""
import os
import re
import struct

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
hdr = open(os.path.join(root, 'src/net/frame.h')).read()
enum = hdr[hdr.index('enum class MsgType'):]
enum = enum[:enum.index('};')]
names = re.findall(r'^\s+(k\w+)', enum, re.M)
types = {n: i + 1 for i, n in enumerate(names)}
assert types['kHello'] == 1 and len(types) == 35, types

table = []
for i in range(256):
    c = i
    for _ in range(8):
        c = (0x82F63B78 ^ (c >> 1)) if c & 1 else c >> 1
    table.append(c)
def crc32c(data, seed=0):
    crc = ~seed & 0xFFFFFFFF
    for b in data:
        crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return ~crc & 0xFFFFFFFF

def frame(msg_type, request_id, payload):
    head = struct.pack('<IBBHII', 0x4F4C5041, 1, msg_type, 0, len(payload), request_id)
    crc = crc32c(payload, crc32c(head))
    return head + struct.pack('<I', crc) + payload

src = open(os.path.join(root, 'tests/net_golden.h')).read()
golden = {}
for m in re.finditer(r'Golden\("(\w+)", MsgType::(k\w+), m,\s*((?:"[0-9a-f]*"\s*)+)\)', src):
    golden[m.group(1)] = (m.group(2), bytes.fromhex(''.join(re.findall(r'"([0-9a-f]*)"', m.group(3)))))
assert len(golden) == 30, len(golden)

def patch(p, offset, new):
    p = bytearray(p)
    if offset < 0:
        offset += len(p)
    p[offset:offset + len(new)] = new
    return bytes(p)

# A second frame per type that the strict decoder must reject.
bad = {
    'hello': lambda p: p[:-12],                       # no tenant
    'publish': lambda p: patch(p, -1, b'\x02'),       # provenance 2
    'publish_batch': lambda p: patch(p, -1, b'\x02'),
    'publish_batch_ack': lambda p: patch(p, 12, b'\x0b'),  # errors > count
    'shm_attach_ack': lambda p: patch(p, 0, b'\x02'),  # bool 2
    'deliver': lambda p: patch(p, -1, b'\x02'),
    'window': lambda p: patch(p, -1, b'\x02'),
    'result': lambda p: patch(p, 0, b'\x02'),          # degraded 2
    'topic_list': lambda p: patch(p, -8, struct.pack('<q', 1 << 32)),
    'cluster_map': lambda p: patch(p, -1, b'\x04'),    # member state 4
    'replicate': lambda p: patch(p, -1, b'\x02'),
    'replicate_ack': lambda p: patch(p, 0, b'\x04'),   # verdict 4
    'resync_chunk': lambda p: patch(p, -1, b'\x02'),
    'cq_update': lambda p: patch(p, 24, b'\x02'),
    'error': lambda p: patch(p, 0, b'\x0b'),           # code 11
}

out_dir = os.path.join(root, 'fuzz/corpus_frame')
by_type = {t: (n, p) for n, (t, p) in golden.items()}
for type_name, value in types.items():
    if type_name in by_type:
        name, payload = by_type[type_name]
        data = frame(value, 1, payload)
        if name in bad:
            data += frame(value, 2, bad[name](payload))
    else:
        name = re.sub(r'(?<!^)(?=[A-Z])', '_', type_name[1:]).lower()
        data = frame(value, 1, b'')
    with open(os.path.join(out_dir, name + '.frame'), 'wb') as f:
        f.write(data)
