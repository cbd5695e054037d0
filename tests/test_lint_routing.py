"""R501/R502: proxy-routing and envelope-authentication rules."""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

import pytest

from repro.lint.callgraph import ParsedModule, build_call_graph
from repro.lint.cli import main as lint_main
from repro.lint.routing import run_routing_rules

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent


def routing_violations(*modules: tuple[str, str]):
    parsed = [
        ParsedModule(
            module=name,
            path=f"src/{name.replace('.', '/')}.py",
            tree=ast.parse(source),
        )
        for name, source in modules
    ]
    sources = {
        p.path: source.splitlines()
        for p, (_, source) in zip(parsed, modules)
    }
    return run_routing_rules(build_call_graph(parsed), sources)


class TestR501:
    def test_flags_direct_transport_send(self):
        violations = routing_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def leak(self, frame):\n"
                "        self.transport.send(self.player_id, 0, frame)\n",
            ),
        )
        assert [v.rule for v in violations] == ["R501"]
        assert "proxy" in violations[0].message

    def test_flags_raw_send_from_game_module(self):
        violations = routing_violations(
            (
                "repro.game.weapons",
                "class Weapon:\n"
                "    def fire(self, frame):\n"
                "        self.node._send_many(1, [2], frame)\n",
            ),
        )
        assert [v.rule for v in violations] == ["R501"]

    def test_sanctioned_egress_is_exempt(self):
        violations = routing_violations(
            (
                "repro.core.node",
                "class WatchmenNode:\n"
                "    def _transmit_unfiltered(self, destinations, frame):\n"
                "        self._send_many(self.player_id, destinations, frame)\n",
            ),
        )
        assert violations == []

    def test_exact_proxy_edge_vouches_for_routing(self):
        violations = routing_violations(
            (
                "repro.core.proxy",
                "def proxies_for(player, frame):\n    return []\n",
            ),
            (
                "repro.core.node",
                "from repro.core.proxy import proxies_for\n"
                "class Node:\n"
                "    def route(self, buffer, frame):\n"
                "        for proxy in proxies_for(self.player_id, frame):\n"
                "            self.transport.send(self.player_id, proxy, buffer)\n",
            ),
        )
        assert violations == []

    def test_by_name_proxy_guess_does_not_vouch(self):
        # A same-named method in proxy.py reached only by a by-name guess
        # must NOT count as routing evidence (tier-1 edges only).
        violations = routing_violations(
            (
                "repro.core.proxy",
                "class ProxySchedule:\n"
                "    def epoch_of_frame(self, frame):\n        return 0\n",
            ),
            (
                "repro.core.config",
                "class WatchmenConfig:\n"
                "    def epoch_of_frame(self, frame):\n        return 0\n",
            ),
            (
                "repro.core.node",
                "class Node:\n"
                "    def leak(self, buffer, frame):\n"
                "        epoch = self.config.epoch_of_frame(frame)\n"
                "        self.transport.send(self.player_id, epoch, buffer)\n",
            ),
        )
        assert [v.rule for v in violations] == ["R501"]

    def test_non_transport_arity_is_ignored(self):
        violations = routing_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def save(self, sink, data):\n"
                "        sink.send(data)\n",
            ),
        )
        assert violations == []

    def test_cheats_and_net_modules_are_out_of_scope(self):
        violations = routing_violations(
            (
                "repro.net.transport",
                "class Transport:\n"
                "    def deliver(self, frame):\n"
                "        self.socket.send(1, 2, frame)\n",
            ),
        )
        assert violations == []


class TestR502:
    def test_flags_reply_to_payload_sender_id(self):
        violations = routing_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def _on_guidance(self, src, message):\n"
                "        self._transmit(self.ack, (message.sender_id,))\n",
            ),
        )
        assert [v.rule for v in violations] == ["R502"]
        assert "sender_id" in violations[0].message

    def test_flags_a_lone_destination_expression_too(self):
        violations = routing_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def _on_guidance(self, src, message):\n"
                "        self._transmit(self.ack, message.sender_id)\n",
            ),
        )
        assert [v.rule for v in violations] == ["R502"]

    def test_flags_destination_keyword(self):
        violations = routing_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def _handle_update(self, src, update):\n"
                "        self._transmit(self.ack, destinations=[update.sender_id])\n",
            ),
        )
        assert [v.rule for v in violations] == ["R502"]

    def test_passes_when_replying_to_envelope_src(self):
        violations = routing_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def _on_guidance(self, src, message):\n"
                "        self._transmit(self.ack, (src,))\n",
            ),
        )
        assert violations == []

    def test_non_handler_functions_are_not_checked(self):
        violations = routing_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def broadcast(self, message):\n"
                "        self._transmit(self.ack, message.sender_id)\n",
            ),
        )
        assert violations == []

    def test_self_attribute_sender_id_is_fine(self):
        # self.last_message.sender_id is node state, not the spoofable payload.
        violations = routing_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def _on_guidance(self, src, message):\n"
                "        self._transmit(self.ack, self.last.sender_id)\n",
            ),
        )
        assert violations == []


def _copy_tree(tmp_path: Path) -> Path:
    root = tmp_path / "repo"
    (root / "src").mkdir(parents=True)
    shutil.copytree(REPO_ROOT / "src" / "repro", root / "src" / "repro")
    return root


class TestAcceptanceProxyBypass:
    """ISSUE.md acceptance criterion: a deliberate proxy-bypass patch makes
    ``repro lint`` exit 1 with an R501 finding."""

    def test_clean_copy_passes(self, tmp_path, capsys):
        root = _copy_tree(tmp_path)
        assert lint_main(["--root", str(root)]) == 0

    def test_proxy_bypass_fails_with_r501(self, tmp_path, capsys):
        root = _copy_tree(tmp_path)
        node_py = root / "src" / "repro" / "core" / "node.py"
        source = node_py.read_text()
        marker = "    def _on_removal_proposal("
        assert marker in source
        patched = source.replace(
            marker,
            "    def _on_shortcut(self, frame):\n"
            "        self._send_many(self.player_id, [0], frame)\n"
            "\n" + marker,
            1,
        )
        node_py.write_text(patched)

        exit_code = lint_main(["--root", str(root)])
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "R501" in output
        assert "proxy" in output
