"""Application-model tests: layouts, signatures, engine interaction."""

import pytest

from repro.apps.freetype import FreeType
from repro.apps.hunspell import Dictionary, Hunspell, stable_hash
from repro.apps.jpeg import BlockImage, JpegCodec, make_block_image
from repro.apps.memcached import Memcached
from repro.apps.uthash import UthashTable
from repro.sgx.columnar import END_OF_KEYS
from repro.sgx.params import PAGE_SIZE

HEAP = 0x6000_0000


class RecordingEngine:
    """Collects the access stream an app emits."""

    def __init__(self):
        self.data = []
        self.code = []
        self.cycles = 0
        self.progress_events = 0

    def data_access(self, vaddr, write=False):
        self.data.append((vaddr, write))

    def data_access_run(self, vaddrs, write=False):
        for vaddr in vaddrs:
            self.data.append((vaddr, write))

    def code_access(self, vaddr):
        self.code.append(vaddr)

    def compute(self, cycles):
        self.cycles += cycles

    def make_run(self, vaddrs, write=False):
        return list(vaddrs), write

    def replay(self, trace):
        (vaddrs, write), cycles = trace
        self.data_access_run(vaddrs, write)
        self.cycles += cycles

    def progress(self, kind):
        self.progress_events += 1

    def serve_window(self, keys, traces, request_cycles, kind):
        return 0, next(keys, END_OF_KEYS)


class FakeLib:
    """Stands in for a LoadedLibrary."""

    def __init__(self, code_pages=48, start=0x7000_0000):
        from repro.runtime.loader import LibraryImage
        self.image = LibraryImage("fake", code_pages=code_pages)
        self.code_start = start

    def code_page(self, i):
        return self.code_start + i * PAGE_SIZE


class TestUthash:
    def _table(self, data_mb=4):
        return UthashTable(RecordingEngine(), HEAP,
                           data_mb * 1024 * 1024)

    def test_geometry(self):
        table = self._table()
        assert table.n_items == 4 * 1024 * 1024 // 256
        assert table.items_per_page == 16
        assert table.bucket_array_start == \
            HEAP + table.item_pages * PAGE_SIZE

    def test_chain_length_bounded(self):
        table = self._table()
        for item in (0, 1, table.n_items - 1):
            assert table.chain_position(item) < table.max_chain

    def test_lookup_touches_signature_pages(self):
        table = self._table()
        item = 12_345
        table.lookup(item)
        touched = tuple(v for v, _w in table.engine.data)
        assert touched == table.access_signature(item)

    def test_lookup_unknown_item_rejected(self):
        table = self._table()
        with pytest.raises(KeyError):
            table.lookup(table.n_items)

    def test_rejected_lookup_has_no_effect(self):
        table = self._table()
        table.lookup(5)
        lookups, cycles = table.lookups, table.engine.cycles
        data = list(table.engine.data)
        for item in (table.n_items, -1):
            with pytest.raises(KeyError):
                table.lookup(item)
        assert table.lookups == lookups == 1
        assert table.engine.cycles == cycles
        assert table.engine.data == data

    def test_insert_ends_with_item_write(self):
        table = self._table()
        table.insert(99)
        vaddr, write = table.engine.data[-1]
        assert write and vaddr == table.item_page(99)

    def test_rehash_shortens_chains(self):
        table = self._table()
        item = table.n_items - 1
        before = len(table.access_signature(item))
        table.rehash()
        after = len(table.access_signature(item))
        assert after < before

    def test_rehash_grows_bucket_array(self):
        table = self._table()
        before = table.total_pages
        assert table.total_pages_after_rehash() >= before
        table.rehash()
        assert table.total_pages == table.total_pages_after_rehash(1)

    def test_oversized_items_rejected(self):
        with pytest.raises(Exception):
            UthashTable(RecordingEngine(), HEAP, 1 << 20,
                        item_size=8192)


class TestMemcached:
    def _server(self):
        return Memcached(RecordingEngine(), HEAP, 4 * 1024 * 1024)

    def test_get_touches_index_then_item(self):
        server = self._server()
        server.get(17)
        touched = [v for v, _ in server.engine.data]
        assert touched == [server.index_page(17), server.item_page(17)]

    def test_set_writes(self):
        server = self._server()
        for _ in range(2):
            server.set(17)
        pair = [(server.index_page(17), True), (server.item_page(17), True)]
        assert server.engine.data == pair * 2
        assert server.engine.cycles == 2 * (server.REQUEST_COMPUTE
                                            + server.ITEM_COMPUTE)
        assert server.sets == 2

    def test_keys_map_to_distinct_pages(self):
        server = self._server()
        assert server.item_page(0) != server.item_page(4)
        assert server.item_page(0) == server.item_page(3)  # 4 per page

    def test_serve_emits_progress(self):
        server = self._server()
        server.serve([1, 2, 3])
        assert server.engine.progress_events == 3
        assert server.gets == 3

    def test_bad_key_rejected(self):
        server = self._server()
        with pytest.raises(KeyError):
            server.get(server.n_keys)

    def test_rejected_set_has_no_effect(self):
        # Also the second time: a key outside the store is never
        # planned into the SET's cache.
        server = self._server()
        server.set(17)
        sets, cycles = server.sets, server.engine.cycles
        data = list(server.engine.data)
        for key in (server.n_keys, -1, server.n_keys, -1):
            with pytest.raises(KeyError):
                server.set(key)
        assert server.sets == sets == 1
        assert server.engine.cycles == cycles
        assert server.engine.data == data

    def test_rejected_get_has_no_effect(self):
        server = self._server()
        server.get(17)
        gets, cycles = server.gets, server.engine.cycles
        data = list(server.engine.data)
        for key in (server.n_keys, -1):
            with pytest.raises(KeyError):
                server.get(key)
        assert server.gets == gets == 1
        assert server.engine.cycles == cycles
        assert server.engine.data == data

    def test_rejected_get_in_stream_counts_its_progress_only(self):
        """The reference ``serve`` loop reports progress before each
        GET, so the rejected request's event stands; its GET has no
        effect, and the requests before it are served."""
        server = self._server()
        with pytest.raises(KeyError):
            server.serve([1, 2, server.n_keys, 3])
        assert server.engine.progress_events == 3
        assert server.gets == 2
        assert server.engine.cycles == 2 * (
            server.REQUEST_COMPUTE + server.ITEM_COMPUTE
        )

    def test_serve_accepts_any_iterable(self):
        server = self._server()
        server.serve(k for k in (4, 5, 4))
        server.serve(())
        assert server.gets == 3
        assert server.engine.progress_events == 3


class TestJpeg:
    def _codec(self):
        engine = RecordingEngine()
        lib = FakeLib(code_pages=8)
        return JpegCodec(engine, lib, input_start=HEAP,
                         temp_start=HEAP + 0x100000,
                         output_start=HEAP + 0x200000), lib

    def test_decode_touches_idct_by_complexity(self):
        codec, lib = self._codec()
        image = BlockImage(2, 1, [True, False])
        codec.decode(image)
        assert lib.code_page(codec.IDCT_FULL_PAGE) in codec.engine.code
        assert lib.code_page(codec.IDCT_SKIP_PAGE) in codec.engine.code

    def test_complex_blocks_cost_more(self):
        codec_a, _ = self._codec()
        codec_b, _ = self._codec()
        codec_a.decode(BlockImage(4, 1, [True] * 4))
        codec_b.decode(BlockImage(4, 1, [False] * 4))
        assert codec_a.engine.cycles > codec_b.engine.cycles

    def test_output_sequential(self):
        codec, _ = self._codec()
        image = make_block_image(8, 8, pattern="noise")
        codec.decode(image)
        writes = [v for v, w in codec.engine.data if w
                  and v >= codec.output_start]
        assert writes == sorted(writes)

    def test_decoded_bytes(self):
        codec, _ = self._codec()
        image = BlockImage(10, 10, [False] * 100)
        assert codec.decode(image) == 100 * codec.BYTES_PER_BLOCK

    def test_disc_image_is_round(self):
        image = make_block_image(20, 20, pattern="disc")
        assert image.complexity[0] is False          # corner smooth
        assert image.complexity[10 * 20 + 10] is True  # center complex

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            make_block_image(2, 2, pattern="plaid")

    def test_needs_three_code_pages(self):
        with pytest.raises(ValueError):
            JpegCodec(RecordingEngine(), FakeLib(code_pages=2),
                      HEAP, HEAP, HEAP)


class TestHunspell:
    def _dict(self, n=5_000):
        return Dictionary("en", HEAP, n)

    def test_stable_hash_is_stable(self):
        assert stable_hash("hello") == stable_hash("hello")

    def test_signature_starts_with_bucket_page(self):
        d = self._dict()
        sig = d.signature("word")
        assert sig[0] == d.bucket_page("word")

    def test_signatures_deterministic(self):
        d = self._dict()
        assert d.signature("cat") == d.signature("cat")

    def test_check_touches_signature(self):
        d = self._dict()
        hunspell = Hunspell(RecordingEngine(), [d])
        hunspell.check("dog", "en")
        touched = tuple(v for v, _ in hunspell.engine.data)
        assert touched == d.signature("dog")

    def test_code_page_trigger(self):
        d = self._dict()
        hunspell = Hunspell(RecordingEngine(), [d], code_page=0x9000)
        hunspell.check("dog", "en")
        assert hunspell.engine.code == [0x9000]

    def test_load_touches_all_entry_pages(self):
        d = self._dict(1_000)
        hunspell = Hunspell(RecordingEngine(), [d])
        hunspell.load("en")
        entry_pages = {
            v for v, _ in hunspell.engine.data
            if v < d.start + d.entry_pages * PAGE_SIZE
        }
        assert len(entry_pages) == d.entry_pages

    def test_check_text_emits_progress(self):
        d = self._dict()
        hunspell = Hunspell(RecordingEngine(), [d])
        hunspell.check_text(["a", "b"], "en")
        assert hunspell.engine.progress_events == 2

    def test_no_dictionaries_rejected(self):
        with pytest.raises(ValueError):
            Hunspell(RecordingEngine(), [])


class TestFreeType:
    def _ft(self):
        return FreeType(RecordingEngine(), FakeLib(code_pages=48),
                        bitmap_start=HEAP)

    def test_signatures_unique_per_glyph(self):
        ft = self._ft()
        signatures = {ft.signature(g) for g in ft.glyphs}
        assert len(signatures) == len(ft.glyphs)

    def test_render_follows_signature(self):
        ft = self._ft()
        ft.render("A")
        assert tuple(ft.engine.code) == ft.signature("A")

    def test_common_pages_shared(self):
        ft = self._ft()
        assert ft.signature("A")[:2] == ft.signature("B")[:2]

    def test_render_unknown_glyph_rejected(self):
        ft = self._ft()
        with pytest.raises(KeyError):
            ft.render("é")

    def test_library_too_small_rejected(self):
        with pytest.raises(ValueError):
            FreeType(RecordingEngine(), FakeLib(code_pages=4),
                     bitmap_start=HEAP)

    def test_render_text_counts(self):
        ft = self._ft()
        ft.render_text("abc")
        assert ft.rendered == 3
